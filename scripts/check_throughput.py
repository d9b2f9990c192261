#!/usr/bin/env python3
"""Compare a bench_sim_throughput sidecar against a committed baseline.

Usage: check_throughput.py [--max-regression FRAC] <current.json> <baseline.json>

Both files are JSON sidecars produced by `bench_sim_throughput --json`.
For every throughput stat (kuops/s keys) present in the baseline, the
current value must not fall below (1 - FRAC) * baseline (default FRAC
0.20, i.e. a >20% regression fails). The flow-cache speedup must also
stay above a sanity floor: the cache must never make the detailed
model *slower* (translation got cheap enough elsewhere that the
cache's win is modest, but a value below 1 would mean the cache costs
more than it saves and should be investigated).

The superblock threaded-code tier is guarded by its in-process ratio,
not an absolute floor: `superblock_speedup` (cache-only tier-on /
tier-off, both measured inside one bench process) must stay at or
above MIN_SB_SPEEDUP. The ratio is robust to the run-to-run host
noise that makes absolute kuops/s floors loose, so it is the primary
guard for the tier. The sidecar must also show the tier actually
engaged (`superblock.entries` > 0) — a silently disabled tier would
otherwise pass the ratio check only by failing the absolute floors.

The defended rows (the Fig. 7a victim under stealth mode, detailed and
cache-only) are gated on engagement, not speed: each one's flow-cache
hit rate must be at least MIN_DEFENDED_HIT_RATE. Watchdog retriggers
and MSR writes must not flush the cache; a hit rate near 0 means they
do again. Their kuops/s are informational.

Host machines differ, so the committed baseline is a floor for CI's
runner class, not a universal truth; refresh it with
`bench_sim_throughput --json bench/baseline_throughput.json` on the CI
runner when the simulator legitimately changes speed.

Exit code 0 on success; nonzero with a diagnostic otherwise.
"""

import json
import sys

THROUGHPUT_KEYS = (
    "detailed_kuops_per_s_cache_on",
    "detailed_kuops_per_s_cache_off",
    "cacheonly_kuops_per_s",
    "cacheonly_kuops_per_s_interp",
)
# Sanity floor for flow_cache_speedup (cache-on / cache-off): below
# this the cache is a net loss on the host and something is wrong.
MIN_SPEEDUP = 0.9
# Floor for superblock_speedup (cache-only tier-on / tier-off, same
# process): the threaded-code tier must at least double cache-only
# throughput. In-process, so host noise cancels out.
MIN_SB_SPEEDUP = 2.0
# Floor for the defended rows' flow-cache hit rates.
DEFENDED_HIT_RATE_KEYS = (
    "defended_detailed_flow_cache_hit_rate",
    "defended_cacheonly_flow_cache_hit_rate",
)
MIN_DEFENDED_HIT_RATE = 0.99


def fail(msg):
    print(f"check_throughput: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load_stats(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: unreadable or invalid JSON: {e}")
    if "stats" not in doc:
        fail(f"{path}: sidecar missing 'stats'")
    return doc["stats"]


def main():
    argv = sys.argv[1:]
    max_regression = 0.20
    if argv and argv[0] == "--max-regression":
        if len(argv) < 2:
            fail("--max-regression needs a value")
        max_regression = float(argv[1])
        argv = argv[2:]
    if len(argv) != 2:
        fail(
            "usage: check_throughput.py [--max-regression FRAC] "
            "<current.json> <baseline.json>"
        )
    current = load_stats(argv[0])
    baseline = load_stats(argv[1])

    ok = True
    for key in THROUGHPUT_KEYS:
        if key not in baseline:
            fail(f"baseline missing '{key}'")
        if key not in current:
            fail(f"current run missing '{key}'")
        floor = baseline[key] * (1.0 - max_regression)
        status = "ok" if current[key] >= floor else "REGRESSED"
        print(
            f"check_throughput: {key}: current {current[key]:.1f} "
            f"baseline {baseline[key]:.1f} floor {floor:.1f} [{status}]"
        )
        if current[key] < floor:
            ok = False

    speedup = current.get("flow_cache_speedup")
    if speedup is None:
        fail("current run missing 'flow_cache_speedup'")
    speedup_floor = MIN_SPEEDUP
    status = "ok" if speedup >= speedup_floor else "REGRESSED"
    print(
        f"check_throughput: flow_cache_speedup: current {speedup:.2f}x "
        f"floor {speedup_floor:.2f}x [{status}]"
    )
    if speedup < speedup_floor:
        ok = False

    sb_speedup = current.get("superblock_speedup")
    if sb_speedup is None:
        fail("current run missing 'superblock_speedup'")
    status = "ok" if sb_speedup >= MIN_SB_SPEEDUP else "REGRESSED"
    print(
        f"check_throughput: superblock_speedup: current {sb_speedup:.2f}x "
        f"floor {MIN_SB_SPEEDUP:.2f}x [{status}]"
    )
    if sb_speedup < MIN_SB_SPEEDUP:
        ok = False

    sb_entries = current.get("superblock.entries")
    if sb_entries is None:
        fail("current run missing 'superblock.entries'")
    status = "ok" if sb_entries > 0 else "REGRESSED"
    print(
        f"check_throughput: superblock.entries: current "
        f"{sb_entries:.0f} floor >0 [{status}]"
    )
    if sb_entries <= 0:
        ok = False
    sb_interp = current.get("superblock.interp_entries")
    if sb_interp is None:
        fail("current run missing 'superblock.interp_entries'")
    if sb_interp != 0:
        fail(
            f"tier-off run entered {sb_interp:.0f} superblocks; "
            "setSuperblockEnabled(false) is not being honored"
        )

    for key in DEFENDED_HIT_RATE_KEYS:
        rate = current.get(key)
        if rate is None:
            fail(f"current run missing '{key}'")
        status = "ok" if rate >= MIN_DEFENDED_HIT_RATE else "REGRESSED"
        print(
            f"check_throughput: {key}: current {rate:.4f} "
            f"floor {MIN_DEFENDED_HIT_RATE:.2f} [{status}]"
        )
        if rate < MIN_DEFENDED_HIT_RATE:
            ok = False

    if not ok:
        fail(f"throughput regressed >={max_regression:.0%} vs baseline")
    print("check_throughput: OK")


if __name__ == "__main__":
    main()
