"""Turns the drivers' raw figures into the benchmark's metrics.

Pure functions only, so tests can feed them fixed inputs.  Every
"per delivery" and "per request" figure is a group total (summed over all
replicas) divided by the payloads delivered in total order in the timed
window: a delivered payload on the simulator workloads, a request completed
with a t+1 reply quorum on the cluster workload.
"""

import math
import statistics

# name -> unit, for every metric the benchmark prints.  BENCHMARK.json lists
# the same names; test_perfbench.py checks that the two agree.
END_TO_END = {
    "deliveries_per_s": "1/s",
    "virtual_deliveries_per_s": "1/s",
    "requests_per_s": "1/s",
    "reply_p50_ms": "ms",
    "reply_p99_ms": "ms",
    "cpu_ms_per_request": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

CRYPTO_OPS = [
    "coin.assemble", "coin.release", "coin.verify_share", "dleq.batch_verify",
    "multi_sig.sign_share", "multi_sig.verify_share", "tdh2.combine",
    "tdh2.decrypt_share", "tdh2.encrypt", "tdh2.verify_share",
    "threshold_sig.combine", "threshold_sig.sign_share",
    "threshold_sig.verify_share",
]

PER_LAYER = {
    "client.retransmits_per_request": "count",
    "client.admitted_per_request": "count",
    "client.ordered_per_executed": "count",
    "client.first_reply_ms": "ms",
    "client.quorum_gap_ms": "ms",
    "channel.entries_per_round": "count",
    "channel.parked_share": "ratio",
    "channel.handle_ms_per_delivery": "ms",
    "channel.send_ms": "ms",
    "broadcast.handle_ms_per_delivery": "ms",
    "broadcast.bytes_per_delivery": "bytes",
    "agreement.handle_ms_per_delivery": "ms",
    "agreement.mvba_iterations_per_round": "count",
    "agreement.ba_rounds_per_decision": "count",
    "agreement.coins_per_round": "count",
    "dispatcher.messages_per_delivery": "count",
    "dispatcher.bytes_per_delivery": "bytes",
    "dispatcher.unrouted_share": "ratio",
    "dispatcher.early_buffered_per_delivery": "count",
    "crypto.sig_ms_per_delivery": "ms",
    **{f"crypto.ops_per_delivery.{op}": "count" for op in CRYPTO_OPS},
    "crypto.work_per_delivery": "units",
    "crypto.optimistic_hit_ratio": "ratio",
    "crypto.pool_wait_ms_p50": "ms",
    "net.syscalls_per_request": "count",
    "net.datagrams_per_request": "count",
    "net.bytes_per_request": "bytes",
    "link.retransmit_ratio": "ratio",
    "link.duplicate_drop_ratio": "ratio",
    "node.user_cpu_ms_per_request": "ms",
    "node.sys_cpu_ms_per_request": "ms",
    "sim.messages_per_delivery": "count",
    "sim.bytes_per_delivery": "bytes",
    "attribution.handle_ms_per_delivery": "ms",
    "attribution.cpu_ms_per_delivery": "ms",
    "attribution.unattributed_ms_per_delivery": "ms",
    "trace.overhead_share": "ratio",
}


def percentile(values, p):
    """Nearest-rank percentile (p in [0, 100]) and the sample count.

    The count travels with the value so a reader can tell whether the
    percentile is supported: p99 needs at least 1000 samples for ten of them
    to lie beyond it."""
    if not values:
        return 0.0, 0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered)


def ratio(part, whole):
    """part / whole, or 0 when nothing happened (whole == 0)."""
    return part / whole if whole else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def parse_proc_stat(text):
    """(utime, stime) in clock ticks from one /proc/<pid>/stat line.

    The command name (field 2) is parenthesised and may hold spaces or
    parentheses, so fields are counted from the last ')'."""
    rest = text[text.rindex(")") + 2:].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    return int(rest[11]), int(rest[12])


def cpu_seconds(start_stats, end_stats, ticks_per_s):
    """User and system CPU seconds spent between two samples of each
    process's /proc/<pid>/stat."""
    user = system = 0
    for a, b in zip(start_stats, end_stats):
        ua, sa = parse_proc_stat(a)
        ub, sb = parse_proc_stat(b)
        user += ub - ua
        system += sb - sa
    return user / ticks_per_s, system / ticks_per_s


def vm_hwm_kb(status_text):
    """Peak resident set (kB) from one /proc/<pid>/status text."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise ValueError("no VmHWM line")


def _key(entry):
    return entry["name"], tuple(sorted(entry.get("labels", {}).items()))


def snapshot_delta(before, after):
    """What happened between two metrics snapshots (sintra.metrics.v1).

    Counters and histograms are differenced; gauges keep end-minus-start,
    which is the window's share for the monotonic ones (syscalls, link
    frames).  Returns {"counters": {key: v}, "gauges": {...},
    "histograms": {key: {"count", "sum", "buckets": {bucket: count}}}}."""
    before = before or {"counters": [], "gauges": [], "histograms": []}
    out = {"counters": {}, "gauges": {}, "histograms": {}}
    base = {_key(c): c["value"] for c in before["counters"]}
    for c in after["counters"]:
        out["counters"][_key(c)] = c["value"] - base.get(_key(c), 0)
    base = {_key(g): g["value"] for g in before["gauges"]}
    for g in after["gauges"]:
        out["gauges"][_key(g)] = g["value"] - base.get(_key(g), 0.0)
    base = {_key(h): h for h in before["histograms"]}
    for h in after["histograms"]:
        b = base.get(_key(h), {"count": 0, "sum": 0.0, "buckets": []})
        buckets = {x["bucket"]: x["count"] for x in h["buckets"]}
        for x in b["buckets"]:
            buckets[x["bucket"]] = buckets.get(x["bucket"], 0) - x["count"]
        out["histograms"][_key(h)] = {
            "count": h["count"] - b["count"],
            "sum": h["sum"] - b["sum"],
            "buckets": buckets,
        }
    return out


def merge_deltas(deltas):
    """Adds several processes' snapshot deltas (one per node)."""
    out = {"counters": {}, "gauges": {}, "histograms": {}}
    for d in deltas:
        for kind in ("counters", "gauges"):
            for k, v in d[kind].items():
                out[kind][k] = out[kind].get(k, 0) + v
        for k, h in d["histograms"].items():
            m = out["histograms"].setdefault(
                k, {"count": 0, "sum": 0.0, "buckets": {}})
            m["count"] += h["count"]
            m["sum"] += h["sum"]
            for b, c in h["buckets"].items():
                m["buckets"][b] = m["buckets"].get(b, 0) + c
    return out


def layer_class(layer):
    """Module that owns a dispatcher layer label (obs::layer_of form)."""
    if layer == "unrouted":
        return "dispatcher"
    parts = layer.split(".")
    if "cb" in parts or "rb" in parts:
        return "broadcast"
    if "vba" in parts or "ba" in parts:
        return "agreement"
    return "channel"


def _sum(delta, kind, name, where=lambda labels: True):
    total = 0
    for (n, labels), v in delta[kind].items():
        if n == name and where(dict(labels)):
            total += v if kind != "histograms" else v["sum"]
    return total


def _count(delta, name):
    return sum(h["count"] for (n, _), h in delta["histograms"].items()
               if n == name)


def _hist_mean(delta, name):
    return ratio(_sum(delta, "histograms", name), _count(delta, name))


def _hist_p50(delta, name):
    """Median of a log-bucketed histogram, as its bucket's upper bound (ms):
    bucket i holds values whose 1000-fold rounds into [2^(i-1), 2^i)."""
    buckets = {}
    for (n, _), h in delta["histograms"].items():
        if n == name:
            for b, c in h["buckets"].items():
                buckets[b] = buckets.get(b, 0) + c
    total = sum(buckets.values())
    if total <= 0:
        return 0.0
    seen = 0
    for b in sorted(buckets):
        seen += buckets[b]
        if seen * 2 >= total:
            return (2 ** b) / 1000.0 if b > 0 else 0.0
    return 0.0


def layer_metrics(delta, deliveries, cpu_user_s, cpu_sys_s):
    """Per-layer metrics that both transports report through obs::registry().
    `delta` is the (merged) snapshot delta of the timed window."""
    d = deliveries
    handle = {"channel": 0.0, "broadcast": 0.0, "agreement": 0.0,
              "dispatcher": 0.0}
    bytes_by = dict.fromkeys(handle, 0)
    messages = unrouted = 0
    for (name, labels), v in delta["histograms"].items():
        if name == "dispatcher.handle_ms":
            handle[layer_class(dict(labels).get("layer", ""))] += v["sum"]
    for (name, labels), v in delta["counters"].items():
        cls = layer_class(dict(labels).get("layer", ""))
        if name == "dispatcher.bytes":
            bytes_by[cls] += v
        elif name == "dispatcher.messages":
            messages += v
            if cls == "dispatcher":
                unrouted += v
    hits = _sum(delta, "counters", "crypto.optimistic_hits")
    fallbacks = _sum(delta, "counters", "crypto.fallbacks")
    cpu_ms = (cpu_user_s + cpu_sys_s) * 1000.0
    handled = sum(handle.values())
    m = {
        "channel.entries_per_round": _hist_mean(delta, "channel.batch_entries"),
        "channel.parked_share": ratio(
            _sum(delta, "counters", "channel.parked_batches"),
            _sum(delta, "counters", "channel.rounds")),
        "channel.handle_ms_per_delivery": ratio(handle["channel"], d),
        "broadcast.handle_ms_per_delivery": ratio(handle["broadcast"], d),
        "broadcast.bytes_per_delivery": ratio(bytes_by["broadcast"], d),
        "agreement.handle_ms_per_delivery": ratio(handle["agreement"], d),
        "agreement.mvba_iterations_per_round": _hist_mean(
            delta, "channel.mvba_iterations"),
        "agreement.ba_rounds_per_decision": _hist_mean(
            delta, "ba.rounds_to_decide"),
        "agreement.coins_per_round": ratio(
            _sum(delta, "counters", "ba.coins_assembled"),
            _sum(delta, "counters", "channel.rounds")),
        "dispatcher.messages_per_delivery": ratio(messages, d),
        "dispatcher.bytes_per_delivery": ratio(sum(bytes_by.values()), d),
        "dispatcher.unrouted_share": ratio(unrouted, messages),
        "dispatcher.early_buffered_per_delivery": ratio(
            _sum(delta, "counters", "dispatcher.early_buffered"), d),
        "crypto.work_per_delivery": ratio(
            _sum(delta, "counters", "crypto.work"), d),
        "crypto.optimistic_hit_ratio": ratio(hits, hits + fallbacks),
        "crypto.pool_wait_ms_p50": _hist_p50(delta, "crypto.pool.wait_ms"),
        "net.syscalls_per_request": ratio(
            _sum(delta, "gauges", "net.tx_syscalls")
            + _sum(delta, "gauges", "net.rx_syscalls"), d),
        "net.datagrams_per_request": ratio(
            _sum(delta, "counters", "net.datagrams_sent"), d),
        "net.bytes_per_request": ratio(
            _sum(delta, "counters", "net.bytes_sent"), d),
        "link.retransmit_ratio": ratio(
            _sum(delta, "gauges", "link.retransmissions"),
            _sum(delta, "counters", "net.messages_sent")),
        "link.duplicate_drop_ratio": ratio(
            _sum(delta, "gauges", "link.drop_duplicate"),
            _sum(delta, "gauges", "link.data_received")),
        "node.user_cpu_ms_per_request": ratio(cpu_user_s * 1000.0, d),
        "node.sys_cpu_ms_per_request": ratio(cpu_sys_s * 1000.0, d),
        "attribution.handle_ms_per_delivery": ratio(handled, d),
        "attribution.cpu_ms_per_delivery": ratio(cpu_ms, d),
        "attribution.unattributed_ms_per_delivery": ratio(cpu_ms - handled, d),
    }
    for op in CRYPTO_OPS:
        m[f"crypto.ops_per_delivery.{op}"] = ratio(
            _sum(delta, "counters", "crypto.ops",
                 lambda labels, op=op: labels.get("op") == op), d)
    return m


# Peak RSS is read after this many timed episodes.
RSS_EPISODE = 2


def _episode_rates(phase):
    return [ratio(p, w) for p, w in
            zip(phase["episode_payloads"], phase["episode_wall_s"])]


def sim_end_to_end(result, setup_s):
    """End-to-end metrics of a simulator run (one untraced phase).  Each
    timed figure is the median over the run's episodes, so that a slow
    stretch of a shared host moves it less than a mean would."""
    phase = result["phases"][0]
    lat = phase["episode_latency_ms"]
    rss = phase["episode_rss_kb"]
    cpu = [ratio((u + s) * 1000.0, p) for u, s, p in
           zip(phase["episode_user_s"], phase["episode_sys_s"],
               phase["episode_payloads"])]
    return {
        "deliveries_per_s": median(_episode_rates(phase)),
        "virtual_deliveries_per_s": ratio(
            phase["first_episode_payloads"], phase["first_episode_virtual_s"]),
        "requests_per_s": median(_episode_rates(phase)),
        "reply_p50_ms": median([percentile(v, 50)[0] for v in lat]),
        "reply_p99_ms": median([percentile(v, 99)[0] for v in lat]),
        "cpu_ms_per_request": median(cpu),
        "setup_s": median(setup_s),
        "peak_rss_mb": rss[min(len(rss), RSS_EPISODE) - 1] / 1024.0,
    }


def sim_per_layer(result):
    """Per-layer metrics of a traced simulator run: phase 0 untraced, phase
    1 traced; the per-layer figures come from the traced phase's episodes
    (each bracketed by two metrics snapshots)."""
    plain, traced = result["phases"]
    d = traced["payloads"]
    snaps = traced["snapshots"]
    delta = merge_deltas([snapshot_delta(a, b)
                          for a, b in zip(snaps[::2], snaps[1::2])])
    m = layer_metrics(delta, d, sum(traced["episode_user_s"]),
                      sum(traced["episode_sys_s"]))
    m.update({
        "client.retransmits_per_request": 0.0,
        "client.admitted_per_request": 0.0,
        "client.ordered_per_executed": 0.0,
        "client.first_reply_ms": 0.0,
        "client.quorum_gap_ms": 0.0,
        "channel.send_ms": ratio(traced["send_ms"], traced["sends"]),
        "crypto.sig_ms_per_delivery": ratio(traced["sig_ms"], d),
        "sim.messages_per_delivery": ratio(traced["sim_messages"], d),
        "sim.bytes_per_delivery": ratio(traced["sim_bytes"], d),
        "trace.overhead_share": 1.0 - ratio(median(_episode_rates(traced)),
                                            median(_episode_rates(plain))),
    })
    return m


def slices(window):
    """Splits a load window at its /proc sampling times: per slice, the
    seconds it lasted, its completed requests' latencies, and the node CPU
    seconds spent in it (as a list of per-sample /proc lines pairs)."""
    bounds = window["sample_ms"]
    out = [{"wall_s": (b - a) / 1000.0, "latency_ms": [],
            "procs": (window["proc_samples"][j], window["proc_samples"][j + 1])}
           for j, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    for done, lat in zip(window["done_ms"], window["latency_ms"]):
        j = 0
        while j + 1 < len(out) and done >= bounds[j + 1]:
            j += 1
        out[j]["latency_ms"].append(lat)
    return out


def cluster_end_to_end(load, setup_s, ticks_per_s):
    """End-to-end metrics of a cluster run (one untraced window), each the
    median over the window's slices.  Every completed request is one payload
    delivered in total order, and the replicas' environment clock is the
    host's monotonic clock, so the three rates coincide here; they differ on
    the simulator workloads."""
    parts = slices(load["windows"][0])
    rates = [ratio(len(p["latency_ms"]), p["wall_s"]) for p in parts]
    cpu = []
    for p in parts:
        user, system = cpu_seconds(*p["procs"], ticks_per_s)
        cpu.append(ratio((user + system) * 1000.0, len(p["latency_ms"])))
    return {
        "deliveries_per_s": median(rates),
        "virtual_deliveries_per_s": median(rates),
        "requests_per_s": median(rates),
        "reply_p50_ms": median([percentile(p["latency_ms"], 50)[0]
                                for p in parts]),
        "reply_p99_ms": median([percentile(p["latency_ms"], 99)[0]
                                for p in parts]),
        "cpu_ms_per_request": median(cpu),
        "setup_s": median(setup_s),
        "peak_rss_mb": max(vm_hwm_kb(t) for t in load["node_status"]) / 1024.0,
    }


def cluster_per_layer(load, node_deltas, ticks_per_s):
    """Per-layer metrics of a traced cluster run: window 0 untraced, window
    1 traced with a metrics snapshot of every node at each end."""
    plain, traced = load["windows"]
    d = traced["completed"]
    cpu_user_s, cpu_sys_s = cpu_seconds(traced["proc_samples"][0],
                                        traced["proc_samples"][-1],
                                        ticks_per_s)
    delta = merge_deltas(node_deltas)
    m = layer_metrics(delta, d, cpu_user_s, cpu_sys_s)

    def node0(name):
        return sum(v for (n, labels), v in node_deltas[0]["counters"].items()
                   if n == name)

    m.update({
        "client.retransmits_per_request": ratio(traced["retransmits"], d),
        "client.admitted_per_request": ratio(
            _sum(delta, "counters", "client.admitted"), d),
        "client.ordered_per_executed": ratio(
            node0("channel.deliveries"), node0("client.executed")),
        "client.first_reply_ms": median(traced["first_reply_ms"]),
        "client.quorum_gap_ms": median(traced["quorum_gap_ms"]),
        "channel.send_ms": 0.0,
        "crypto.sig_ms_per_delivery": 0.0,
        "sim.messages_per_delivery": 0.0,
        "sim.bytes_per_delivery": 0.0,
        "trace.overhead_share": 1.0 - ratio(
            ratio(d, traced["wall_s"]),
            ratio(plain["completed"], plain["wall_s"])),
    })
    return m
