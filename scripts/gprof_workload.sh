#!/usr/bin/env bash
# Profiles one perfbench workload with gprof and prints the flat profile
# and the call-graph summary of its busiest process.
#
#   scripts/gprof_workload.sh <workload> [seconds] [seed]
#
# <workload> is one of perfbench/run.py's workloads (sim_atomic_n4,
# sim_secure_n7, cluster_clients_n4).  The first run configures a -pg
# build of the benchmark programs in $CARGO_TARGET_DIR (default
# ./build-gprof, kept apart from the normal benchmark build), and
# perfbench/run.py then builds into it and runs the workload there with
# GMON_OUT_PREFIX set, so every process that exits normally leaves a
# gmon.<pid> file.  The busiest process is the one with the most
# histogram samples; for a cluster run that is one sintra_node.
#
# The flat profile's "self" column is exclusive time; the call-graph
# lines' "% time" column is inclusive (a function plus its callees).
set -euo pipefail

workload="${1:?usage: $0 <workload> [seconds] [seed]}"
seconds="${2:-20}"
seed="${3:-1}"
repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$repo_root/build-gprof}"
build_dir="$CARGO_TARGET_DIR/perfbench"
gmon_dir="$CARGO_TARGET_DIR/gmon-$workload"

# -no-pie keeps the histogram's text addresses those of the binary on
# disk, which is how each gmon file is matched to its program below.
if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
  cmake -S "$repo_root/perfbench" -B "$build_dir" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-pg \
    -DCMAKE_EXE_LINKER_FLAGS="-pg -no-pie" >/dev/null
fi

rm -rf "$gmon_dir"
mkdir -p "$gmon_dir"
(cd "$repo_root" &&
  GMON_OUT_PREFIX="$gmon_dir/gmon" python3 perfbench/run.py \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
  | tail -n 1)

python3 - "$build_dir" "$gmon_dir" <<'EOF'
import struct
import subprocess
import sys
from pathlib import Path

build_dir, gmon_dir = Path(sys.argv[1]), Path(sys.argv[2])
PROGRAMS = ("sintra_node", "dealer_tool", "perfbench_sim_driver",
            "perfbench_load_driver")


def histogram(path):
    """(high_pc, samples, seconds per sample) of a gmon file's first
    histogram record (glibc gmon format, 64-bit)."""
    data = path.read_bytes()
    if data[:4] != b"gmon" or data[20] != 0:
        return None
    low, high, size, rate = struct.unpack_from("<QQII", data, 21)
    bins = struct.unpack_from(f"<{size}H", data, 21 + 40)
    return high, sum(bins), 1.0 / rate if rate else 0.01


def etext(binary):
    out = subprocess.run(["nm", binary], capture_output=True, text=True).stdout
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[2] == "etext":
            return int(parts[0], 16)
    return None


ends = {p: etext(build_dir / p) for p in PROGRAMS if (build_dir / p).exists()}
best = None
for gmon in sorted(gmon_dir.glob("gmon.*")):
    hist = histogram(gmon)
    if hist is None:
        continue
    high, samples, period = hist
    # glibc rounds the histogram's upper bound up to the bin granularity.
    owner = next((p for p, end in ends.items()
                  if end is not None and 0 <= high - end < 64), None)
    print(f"{gmon.name}: {owner or '?'} {samples * period:.2f} s")
    if owner and (best is None or samples > best[0]):
        best = (samples, owner, gmon, period)
if best is None:
    sys.exit("gprof_workload: no profile written (did the processes exit?)")
samples, owner, gmon, period = best
print(f"\nbusiest: {owner} ({gmon.name}), {samples * period:.2f} s sampled\n")
binary = str(build_dir / owner)
flat = subprocess.run(["gprof", "-b", "-p", binary, str(gmon)],
                      capture_output=True, text=True, check=True).stdout
print("\n".join(flat.splitlines()[:30]))
graph = subprocess.run(["gprof", "-b", "-q", binary, str(gmon)],
                       capture_output=True, text=True, check=True).stdout
primary = [l for l in graph.splitlines() if l.startswith("[")]
print("\ninclusive (call graph primary lines):")
print("index % time    self  children    called     name")
print("\n".join(primary[:30]))
EOF
