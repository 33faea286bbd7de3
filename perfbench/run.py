#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run builds the replica, the
dealer and the two drivers from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; every output of a
run lands there too.  --trace 0 prints the end-to-end metrics, --trace 1
the per-layer ones (README.md in this directory lists them).  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A run whose outputs fail a correctness check prints no metrics and exits
with 1; a checkout that cannot be built exits with 2.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout as it was
sys.path.insert(0, str(Path(__file__).resolve().parent))

import cluster  # noqa: E402
import metrics  # noqa: E402
from procs import Processes, RunFailed, read_json  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim_atomic_n4", "sim_secure_n7", "cluster_clients_n4")
SIM_SETUPS = 5
DEADLINE_S = 170.0
BUILD_DEADLINE_S = 850.0
PROGRAMS = ("sintra_node", "dealer_tool", "perfbench_sim_driver",
            "perfbench_load_driver")


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(procs):
    """Configures once, then lets the build tool decide what is stale."""
    out = build_root() / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    log.unlink(missing_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        if not (out / "CMakeCache.txt").exists():
            procs.run(["cmake", "-S", HERE, "-B", out,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log)
        procs.run(["cmake", "--build", out, "-j", jobs], log)
    except RunFailed:
        sys.stderr.write(log.read_text()[-4000:])
        raise SystemExit(f"perfbench: build failed (see {log})")
    return {p: str(out / p) for p in PROGRAMS}


def build_type():
    cache = build_root() / "perfbench" / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return ""


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """Identifies the measured code when the checkout is not a git tree."""
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "examples", HERE.name)
                   for p in (ROOT / d).rglob("*")
                   if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt",
                                                   ".py"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def run_sim(bins, workload, seed, seconds, trace, procs, workdir):
    """Set-up samples from fresh processes (the dealer caches key generation
    per process) with the seeds cluster.setup_seed gives, then the measured
    run, whose own set-up is one more."""
    workdir.mkdir(parents=True)
    log = workdir / "driver.log"
    setup_s = []
    base = [bins["perfbench_sim_driver"], "--workload", workload,
            "--seed", str(seed)]
    for k in range(SIM_SETUPS - 1):
        out = workdir / f"setup-{k}.json"
        procs.run([bins["perfbench_sim_driver"], "--workload", workload,
                   "--seed", str(cluster.setup_seed(seed, k)),
                   "--setup-only", "--out", out], log)
        setup_s.append(read_json(out)["setup_s"])
    out = workdir / "run.json"
    try:
        procs.run(base + ["--seconds", str(seconds), "--trace", str(trace),
                          "--out", out], log)
    except RunFailed:
        if out.exists():
            raise RunFailed(read_json(out)["error"])
        raise
    result = read_json(out)
    setup_s.append(result["setup_s"])
    phases = result["phases"]
    details = {"setup_s": setup_s,
               **{k: result[k] for k in ("keys", "n", "t", "senders",
                                         "payloads_per_sender", "batch_count",
                                         "pipeline_depth")},
               "phases": [{k: p[k] for k in ("traced", "episodes", "payloads",
                                             "wall_s", "virtual_s")}
                          | {"episode_latency_samples": [
                              len(v) for v in p["episode_latency_ms"]]}
                          for p in phases]}
    attempted = sum(p["payloads"] for p in phases)
    if trace:
        return metrics.sim_per_layer(result), details, attempted
    return metrics.sim_end_to_end(result, setup_s), details, attempted


def calibrate(bins):
    out = subprocess.run([bins["perfbench_load_driver"], "calibrate"],
                         capture_output=True, text=True, timeout=60)
    return json.loads(out.stdout)


def emit(correct, attempted, failed, values):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": values}), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: no repository sources next to "
                         f"{HERE.name}/ (expected src/CMakeLists.txt)")

    def on_signal(signo, _frame):
        raise SystemExit(128 + signo)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    # Compilers and tools put their temporary files here, inside the
    # checkout, instead of the system's temporary directory.
    tmp = build_root() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)

    builder = Processes(time.monotonic() + BUILD_DEADLINE_S)
    try:
        bins = build(builder)
    finally:
        builder.stop()
    procs = Processes(time.monotonic() + DEADLINE_S)

    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": commit(), "source_sha256": source_digest(),
        "build_type": build_type(), "nproc": os.cpu_count(),
        "calibration": calibrate(bins),
    }
    workdir = (build_root() / "work" /
               f"{args.workload}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    error = None
    try:
        if args.workload == "cluster_clients_n4":
            context["keys"] = cluster.KEYS
            values, details, attempted = cluster.run(
                bins, workdir, args.seed, args.seconds, args.trace, procs)
        else:
            values, details, attempted = run_sim(
                bins, args.workload, args.seed, args.seconds, args.trace,
                procs, workdir)
    except RunFailed as e:
        error = str(e)
    except Exception as e:  # a driver bug must still stop every child
        traceback.print_exc()
        error = f"{type(e).__name__}: {e}"
    finally:
        procs.stop()

    units = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    results = build_root() / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if error is not None:
        record.write_text(json.dumps({"context": context, "error": error},
                                     indent=1))
        sys.stderr.write(f"perfbench: {error} (work files kept in "
                         f"{workdir})\n")
        emit(False, 1, 1, {})
        return 1
    shutil.rmtree(workdir, ignore_errors=True)
    out = {name: {"value": values[name], "unit": unit}
           for name, unit in units.items()}
    context["details"] = details
    record.write_text(json.dumps({"context": context, "metrics": out},
                                 indent=1))
    print(json.dumps({"context": context}))
    emit(True, attempted, 0, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
