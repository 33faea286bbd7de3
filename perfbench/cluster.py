"""The cluster_clients_n4 workload: four sintra_node processes over loopback
UDP, driven by perfbench_load_driver through their client lanes.

Every process started here is tracked in a Processes object, whose stop()
runs on every exit path and leaves nothing behind.
"""

import json
import os
import random
import signal
import socket
import time

import metrics
from procs import RunFailed, read_json

N, T = 4, 1
# Four closed-loop clients.  The nodes take every core they can get at any
# load (the per-request CPU rises as the offered load falls), so on a
# shared host every figure follows what the other tenants leave over.  With
# 16 clients the latency distribution grows a long tail of group-wide
# stalls, each holding every request in flight, and the spread of p99 over
# ten runs reached 29 %; with four, few requests sit in any one stall and
# p99 moves no more than throughput does.
CLIENTS = 4
SETUPS = 5
# The timed window is cut into this many slices and each end-to-end figure
# is the median over them, so that a burst of stalls on a shared host moves
# one slice rather than the whole figure.  At 45 seconds a slice holds about
# a thousand requests, so its p99 has about ten samples beyond it.
SLICES = 5
# The shipped node defaults (sendmmsg, one crypto worker per hardware
# thread), the cluster runner's throughput settings, and admission limits
# far above what the closed-loop clients can offer.
NODE_FLAGS = [
    "--channel", "atomic", "--send", "0", "--batch-count", "64",
    "--pipeline-depth", "4", "--client-rate", "1000000",
    "--client-global-rate", "0", "--client-pending", "65536",
    "--linger", "-1",
]
# Small keys, as in scripts/run_local_cluster.sh: crypto stays minor so the
# network, link and client layers do most of the work.
KEYS = {"rsa_bits": 512, "dl_p_bits": 256, "dl_q_bits": 96,
        "hash": "sha256", "signatures": "multi"}


def free_udp_ports(count):
    """Distinct UDP ports that bind right now, drawn below the kernel's
    ephemeral range so that no socket bound to port 0 (the load driver's)
    can take one before its node binds it."""
    low = 20000
    try:
        with open("/proc/sys/net/ipv4/ip_local_port_range") as f:
            ephemeral_low = int(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        ephemeral_low = 32768
    high = max(low + 1000, ephemeral_low)
    rng = random.SystemRandom()
    ports = []
    while len(ports) < count:
        port = rng.randrange(low, high)
        if port in ports:
            continue
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
            try:
                s.bind(("0.0.0.0", port))
            except OSError:
                continue
        ports.append(port)
    return ports


def executed_counts(paths):
    counts = []
    for path in paths:
        snap = read_json(path)
        counts.append(sum(c["value"] for c in snap["counters"]
                          if c["name"] == "client.executed"))
    return counts


class Cluster:
    """One composed group: dealt keys, four nodes, their files."""

    def __init__(self, bins, workdir, seed, procs):
        self.bins, self.dir, self.seed, self.procs = bins, workdir, seed, procs
        self.nodes = []
        workdir.mkdir(parents=True)
        ports = free_udp_ports(2 * N)
        self.peer_ports, self.client_ports = ports[:N], ports[N:]
        self.conf = workdir / "group.conf"
        lines = [f"n = {N}", f"t = {T}"]
        lines += [f"{k} = {v}" for k, v in KEYS.items()]
        lines.append(f"seed = {seed}")
        lines += [f"party.{i} = 127.0.0.1:{p}"
                  for i, p in enumerate(self.peer_ports)]
        self.conf.write_text("\n".join(lines) + "\n")
        self.outs = [workdir / f"out.{i}" for i in range(N)]
        self.metrics = [workdir / f"metrics.{i}.json" for i in range(N)]

    def deal_and_launch(self):
        log = self.dir / "setup.log"
        self.procs.run([self.bins["dealer_tool"], self.conf,
                        self.dir / "keys"], log)
        self.procs.run([self.bins["perfbench_load_driver"], "keygen", "--keys",
                        self.dir / "clients.keys", "--clients",
                        str(CLIENTS + 1), "--seed", str(self.seed)], log)
        for i in range(N):
            err = open(self.dir / f"node.{i}.log", "wb")
            self.nodes.append(self.procs.start(
                [self.bins["sintra_node"], self.conf,
                 self.dir / "keys" / f"party-{i}.keys", *NODE_FLAGS,
                 "--client-port", str(self.client_ports[i]),
                 "--client-keys", self.dir / "clients.keys",
                 "--out", self.outs[i], "--metrics-out", self.metrics[i]],
                stderr=err))
            err.close()

    def drive(self, seconds, trace, probe_only):
        """Runs the load driver against the live nodes; a node that exits
        early fails the run at once instead of at the driver's timeout."""
        out = self.dir / "load.json"
        argv = [self.bins["perfbench_load_driver"], "run",
                "--keys", self.dir / "clients.keys",
                "--targets", ",".join(f"127.0.0.1:{p}"
                                      for p in self.client_ports),
                "--t", str(T), "--clients", str(CLIENTS),
                "--seconds", str(seconds), "--trace", str(trace),
                "--slices", str(SLICES),
                "--seed", str(self.seed),
                "--pids", ",".join(str(p.pid) for p in self.nodes),
                "--metrics", ",".join(str(m) for m in self.metrics),
                "--out", out]
        if probe_only:
            argv.append("--probe-only")
        with open(self.dir / "load.log", "wb") as err:
            load = self.procs.start(argv, stderr=err)
        while load.poll() is None:
            self.procs.remaining()
            for i, node in enumerate(self.nodes):
                if node.poll() is not None:
                    raise RunFailed(f"node {i} exited with {node.returncode} "
                                    f"(see {self.dir / f'node.{i}.log'})")
            time.sleep(0.05)
        result = read_json(out) if out.exists() else {"error": "no output"}
        if load.returncode != 0 or not result.get("ok"):
            raise RunFailed("load driver: " + result.get("error", ""))
        return result

    def snapshot(self):
        """Fresh metrics snapshots from every node (SIGUSR1)."""
        def identity(path):
            # Snapshots are written to a temporary file and renamed, so a
            # new snapshot is a new inode.
            try:
                st = path.stat()
                return st.st_ino, st.st_mtime_ns
            except FileNotFoundError:
                return None

        before = [identity(m) for m in self.metrics]
        for node in self.nodes:
            node.send_signal(signal.SIGUSR1)
        while True:
            self.procs.remaining()
            now = [identity(m) for m in self.metrics]
            if all(a != b for a, b in zip(before, now)):
                return
            time.sleep(0.01)

    def wait_executed(self, expected, timeout=20.0):
        """Waits until every node has executed `expected` requests (a t+1
        quorum completes before the slowest replicas catch up)."""
        end = time.monotonic() + timeout
        while True:
            self.snapshot()
            counts = executed_counts(self.metrics)
            if all(c == expected for c in counts):
                return
            if any(c > expected for c in counts) or time.monotonic() > end:
                raise RunFailed(f"client.executed per node {counts}, "
                                f"expected {expected} on every node")
            time.sleep(0.1)

    def stop(self):
        self.procs.stop(self.nodes)
        self.nodes = []


def check_outputs(cluster, load):
    """The --out sequences are identical on all nodes, hold exactly the
    probe plus every completed request, and put each one at the position
    its t+1 reply quorum reported."""
    seqs = []
    for path in cluster.outs:
        lines = path.read_text().splitlines()
        seqs.append([line[len("DELIVER "):] for line in lines])
    if any(s != seqs[0] for s in seqs[1:]):
        raise RunFailed("replicas executed different sequences")
    seq = seqs[0]
    expected = load["completed"] + 1
    if len(seq) != expected:
        raise RunFailed(f"{len(seq)} executed, expected {expected}")
    placed = [(load["probe_payload"], load["probe_global_seq"])]
    placed += [tuple(e) for e in load["executed"]]
    for payload, gs in placed:
        if gs >= len(seq) or seq[gs] != payload:
            raise RunFailed(f"reply quorum placed {payload!r} at {gs}, "
                            "but the replicas executed something else there")
    if len({p for p, _ in placed}) != len(placed):
        raise RunFailed("a payload completed twice")


def setup_seed(seed, k):
    """The seed of set-up sample k.  The samples before the measured one
    deal other keys, so that their median does not hang on how quickly the
    run's own seed happens to find primes."""
    return seed + 7919 * (k + 1)


def run(bins, workdir, seed, seconds, trace, procs):
    """Sets up SETUPS clusters (each timed from key dealing until every
    client lane answered), measures on the last one, which is dealt from
    `seed`, checks it, and returns (metrics, details, requests attempted)."""
    setup_s = []
    cluster = None
    try:
        for k in range(SETUPS):
            last = k == SETUPS - 1
            cluster = Cluster(bins, workdir / f"setup-{k}",
                              seed if last else setup_seed(seed, k), procs)
            start_ns = time.monotonic_ns()
            cluster.deal_and_launch()
            load = cluster.drive(seconds, trace, probe_only=not last)
            setup_s.append((load["ready_monotonic_ns"] - start_ns) / 1e9)
            if not last:
                cluster.stop()
        if load["timeouts"] or load["rejected"]:
            raise RunFailed(f"{load['timeouts']} requests timed out and "
                            f"{load['rejected']} were rejected")
        if load["quorum_check_failures"]:
            raise RunFailed("a kOk outcome lacked t+1 matching replies")
        cluster.wait_executed(load["completed"] + 1)
        cluster.stop()
        check_outputs(cluster, load)
    finally:
        if cluster is not None:
            cluster.stop()

    ticks = os.sysconf("SC_CLK_TCK")
    details = {
        "completed": load["completed"], "attempted": load["attempted"],
        "setup_s": setup_s, "windows": [
            {"traced": w["traced"], "wall_s": w["wall_s"],
             "completed": w["completed"],
             "slice_samples": [len(p["latency_ms"])
                               for p in metrics.slices(w)]}
            for w in load["windows"]],
    }
    if not trace:
        m = metrics.cluster_end_to_end(load, setup_s, ticks)
    else:
        w = load["windows"][1]
        deltas = [metrics.snapshot_delta(json.loads(a), json.loads(b))
                  for a, b in zip(w["snapshots_start"], w["snapshots_end"])]
        m = metrics.cluster_per_layer(load, deltas, ticks)
    return m, details, load["attempted"]
