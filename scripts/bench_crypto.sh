#!/usr/bin/env bash
# Runs the crypto-substrate microbenchmarks and distills them into
# BENCH_crypto.json in the build directory (copy it to the repo root by
# hand to refresh the recorded runs): ns/op and Montgomery work units per
# operation for every benchmark, plus the before/after speedup ratios for
# the fast-exponentiation layer (seed op sequences vs shipped fast paths)
# and the wall-clock before/after for the 64-bit limb rework (the frozen
# 32-bit path, BM_ModexpRef32, runs in the same binary so the comparison
# is same-machine, same-flags; docs/CRYPTO.md explains both gates).
#
# Usage: scripts/bench_crypto.sh [build_dir]   (default: ./build)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

if [[ ! -d "$build_dir" ]]; then
  cmake -S "$repo_root" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$build_dir" --target crypto_micro -j"$(nproc)"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

"$build_dir/bench/crypto_micro" \
  --benchmark_format=json \
  --benchmark_min_time="${SINTRA_BENCH_MIN_TIME:-0.2}" \
  --benchmark_out="$raw" \
  --benchmark_out_format=json

# Bench context: this tree's build type (not google-benchmark's own) and
# the commit measured, marked "+dirty" when the working tree differs from
# it; null outside a git checkout.
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$build_dir/CMakeCache.txt")"
commit="$(git -C "$repo_root" rev-parse HEAD 2>/dev/null || true)"
if [[ -n "$commit" ]] && ! git -C "$repo_root" diff --quiet HEAD; then
  commit+="+dirty"
fi

python3 - "$raw" "$build_dir/BENCH_crypto.json" \
  "$repo_root/scripts/bench_baselines.json" "$build_type" "$commit" <<'PY'
import json
import os
import platform
import sys

raw_path, out_path, baselines_path = sys.argv[1], sys.argv[2], sys.argv[3]
# An empty cache entry means CMakeLists.txt's default applies.
build_type = sys.argv[4] or "RelWithDebInfo"
commit = sys.argv[5] or None
with open(raw_path) as f:
    raw = json.load(f)

benchmarks = {}
kernel_ns = {}
for b in raw.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    benchmarks[b["name"]] = {
        "ns_per_op": round(b["real_time"], 1),
        "work_units_per_op": round(b.get("work_per_op", 0.0)),
    }
    # BM_MontSqr/BM_MontMul count kernel calls as items; the hash block
    # benchmarks are one compression per op.
    if b.get("items_per_second"):
        kernel_ns[b["name"]] = round(1e9 / b["items_per_second"], 1)
    elif b["name"].endswith("Block"):
        kernel_ns[b["name"]] = round(b["real_time"], 1)

def ratio(seed, fast):
    s, f = benchmarks.get(seed), benchmarks.get(fast)
    if not s or not f or not f["work_units_per_op"]:
        return None
    return round(s["work_units_per_op"] / f["work_units_per_op"], 2)

out = {
    "description": "Crypto microbenchmarks: wall-clock ns/op and Montgomery "
                   "work-counter units/op (the unit driving simulated time). "
                   "*Seed benchmarks replicate pre-fast-path op sequences; "
                   "*Fast benchmarks use the shipped multi-exp/comb paths.",
    "context": {
        "date": raw.get("context", {}).get("date"),
        "build_type": build_type,
        "commit": commit,
        "benchmark_library_build_type":
            raw.get("context", {}).get("library_build_type"),
        "group": "dl_p=1024, dl_q=160, n=4, t=1, hash=sha1",
    },
    "benchmarks": benchmarks,
    # ns per Montgomery kernel call (4/8/16 limbs: fixed-width instances,
    # 6: the runtime-width one) and per hash compression.
    "kernel_ns_per_call": kernel_ns,
    "speedups_work_units": {
        "dleq_verify": ratio("BM_DleqVerifySeed", "BM_DleqVerifyFast"),
        "coin_share_verify": ratio("BM_CoinShareVerifySeed",
                                   "BM_CoinShareVerifyFast"),
        "dual_exp": ratio("BM_DualExpSeed", "BM_DualExpFast"),
        "fixed_base_exp": ratio("BM_SingleExp", "BM_SingleExpFixedBase"),
        # Eager per-share verification vs the combine-first fast paths
        # (fault-free trace; the acceptance bar for both is >= 2x).
        "threshold_combine": ratio("BM_ThresholdCombine_Eager/512",
                                   "BM_ThresholdCombine_Optimistic/512"),
        "threshold_combine_1024": ratio("BM_ThresholdCombine_Eager/1024",
                                        "BM_ThresholdCombine_Optimistic/1024"),
        "coin_assemble": ratio("BM_CoinAssemble_Eager",
                               "BM_CoinAssemble_Optimistic"),
    },
}

# --- 64-bit limb rework: wall-clock before/after (PR 8) ---
# "Before" is measured live: BM_ModexpRef32 runs the frozen 32-bit limb
# layer (src/bignum/ref32.hpp) in this same binary.  The PR 7 numbers
# recorded in the pre-rework BENCH_crypto.json are kept alongside for
# reference, but the gate uses the same-machine ref32 ratio so it does
# not depend on which box ran the PR 7 bench.
PR7_RECORDED_NS = {"BM_Modexp/1024": 2066479.3,
                   "BM_Tdh2DecryptShare": 2465605.1}

def wall_ns(name):
    b = benchmarks.get(name)
    return b["ns_per_op"] if b else None

# --- Recorded baselines (PR 9): scripts/bench_baselines.json holds the
# PR 8 wall-clock figures.  When the file is present, (a) its recorded
# BM_ModexpRef32/1024 stands in for the in-binary 32-bit layer once
# src/bignum/ref32 is deleted, and (b) on a matching machine every live
# figure must stay within regression_tolerance of its baseline.
baselines = None
if os.path.exists(baselines_path):
    with open(baselines_path) as f:
        baselines = json.load(f)

ref32_ns = wall_ns("BM_ModexpRef32/1024")
if ref32_ns is None and baselines:
    ref32_ns = baselines["wall_clock_ns"].get("BM_ModexpRef32/1024")
live_ns = wall_ns("BM_Modexp/1024")
tdh2_ns = wall_ns("BM_Tdh2DecryptShare")
out["limb_rework_wall_clock"] = {
    "modexp_1024_before_ref32_ns": ref32_ns,
    "modexp_1024_after_ns": live_ns,
    "modexp_1024_speedup": (round(ref32_ns / live_ns, 2)
                            if ref32_ns and live_ns else None),
    "tdh2_decrypt_share_after_ns": tdh2_ns,
    "tdh2_decrypt_share_speedup_vs_pr7": (
        round(PR7_RECORDED_NS["BM_Tdh2DecryptShare"] / tdh2_ns, 2)
        if tdh2_ns else None),
    "pr7_recorded_ns": PR7_RECORDED_NS,
}

with open(out_path, "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")

sp = out["speedups_work_units"]
print(f"wrote {out_path}")
print(f"  dleq_verify speedup (work units):       {sp['dleq_verify']}x")
print(f"  coin_share_verify speedup (work units): {sp['coin_share_verify']}x")
print(f"  threshold_combine speedup (work units): {sp['threshold_combine']}x")
print(f"  coin_assemble speedup (work units):     {sp['coin_assemble']}x")
for key in ("threshold_combine", "coin_assemble"):
    if sp[key] is None or sp[key] < 2.0:
        sys.exit(f"FAIL: {key} optimistic speedup {sp[key]}x is below the "
                 "2x acceptance bar")
wall = out["limb_rework_wall_clock"]["modexp_1024_speedup"]
print(f"  limb rework wall-clock speedup (modexp-1024, vs 32-bit "
      f"baseline): {wall}x")
if wall is None or wall < 2.0:
    sys.exit(f"FAIL: 64-bit limb rework wall-clock speedup {wall}x on "
             "1024-bit modexp is below the 2x acceptance bar")

# --- Recorded-baseline regression gate ---
if baselines:
    rec = baselines.get("recorded", {})
    same_machine = (rec.get("machine") == platform.machine()
                    and rec.get("cores") == os.cpu_count())
    tol = baselines.get("regression_tolerance", 1.5)
    worst = []
    for name, base_ns in baselines["wall_clock_ns"].items():
        cur = wall_ns(name)
        if cur is None:  # benchmark retired (e.g. ref32 deletion) — fine
            continue
        ratio = cur / base_ns
        if ratio > tol:
            worst.append(f"{name}: {cur:.0f}ns vs baseline {base_ns:.0f}ns "
                         f"({ratio:.2f}x > {tol}x)")
    if same_machine:
        if worst:
            sys.exit("FAIL: wall-clock regression vs "
                     "scripts/bench_baselines.json:\n  " + "\n  ".join(worst))
        print(f"  recorded-baseline gate: all tracked benchmarks within "
              f"{tol}x of the PR {rec.get('pr')} figures")
    else:
        print("  recorded-baseline gate: skipped (different machine: "
              f"{platform.machine()}/{os.cpu_count()} cores vs recorded "
              f"{rec.get('machine')}/{rec.get('cores')})")
        if worst:
            print("  note (informational): " + "; ".join(worst))
PY
