#!/usr/bin/env python3
"""Benchmark of the simulator on the paper's two case studies.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload library|figure_suite --seed N
        --seconds S --trace 0|1

Builds the simulator and perfbench/driver.cc into .bench_build (the
first run), runs the workload for about S seconds as one closed-loop
client, checks every output, prints each metric by name and unit, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md). Exits 0 iff the outputs are correct.
"""

import argparse
import json
import re
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from pb import catalog, checks, inputs, metrics, runner  # noqa: E402

PAPER = {
    "energy_saved_vs_conv_pg": "12.9%",
    "speedup_vs_conv_pg": "3.4%",
    "vpu_gated_time": ">70%",
    "aes_key_bits": "64 -> 0",
    "stealth_overhead": "~5%",
}


class Outcome:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.ops = {}

    def add(self, op, errors=()):
        self.ops.setdefault(op, []).extend(errors)

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(1 for errs in self.ops.values() if errs)

    def errors(self):
        return [e for errs in self.ops.values() for e in errs]


def load_golden(name):
    with open(BENCH_DIR / "golden" / name) as f:
        return json.load(f)


def cell_id(rec):
    return f"{rec['cell']}:{rec['input']}" if "input" in rec else rec["cell"]


def verify_cells(records, outcome, invariant, golden):
    """Invariants per cell run, golden digests at the default seed, and
    identical simulated results across every run of a cell."""
    by_cell = {}
    for rec in metrics.cells_all(records):
        cid = cell_id(rec)
        op = (cid, rec["mode"], rec["pass"])
        errors = invariant(rec)
        if golden is not None:
            want = golden.get(cid, {})
            errors += checks.check_digest(cid, rec["digest_core"],
                                          want.get("digest_core"))
            if "digest" in rec:
                errors += checks.check_digest(cid, rec["digest"],
                                              want.get("digest"))
        outcome.add(op, errors)
        by_cell.setdefault(cid, []).append((op, rec))
    for cid, runs in by_cell.items():
        errors = checks.check_same_digest(
            cid, [r["digest_core"] for _, r in runs])
        errors += checks.check_same_digest(
            cid, [r["digest"] for _, r in runs if "digest" in r])
        if errors:
            for op, _ in runs:
                outcome.add(op, errors)


def check_cell(rec):
    """Seed-independent invariants of one devectorization cell or attack
    variant run."""
    if "policy" in rec:
        return checks.check_devect_cell(rec)
    return checks.check_stealth_cell(rec)


def workload_library(ctx):
    out_dir = ctx["out_dir"]
    stealth = inputs.stealth_inputs(ctx["seed"])
    args = ["library", "--spec-seed", str(inputs.spec_seed(ctx["seed"])),
            *inputs.stealth_args(stealth), "--seconds", str(ctx["seconds"])]
    if ctx["trace"]:
        args.append("--trace")
    records, rss = runner.run_driver(ctx["build_dir"], args,
                                     out_dir / "driver.jsonl")
    golden = None
    if ctx["seed"] == inputs.DEFAULT_SEED:
        golden = {cid: want
                  for cells in load_golden("digests.json").values()
                  for cid, want in cells.items()}
    verify_cells(records, ctx["outcome"], check_cell, golden)
    spans = [r for r in records if r["kind"] == "span"]
    if spans:
        runner.write_chrome_trace(out_dir / "trace.json", spans)
        ctx["report"]["span_self_s"] = runner.self_times(spans)
    e2e = metrics.library_end_to_end(records)
    e2e["peak_rss_mb"] = rss

    base = metrics.cells(records, "base")
    devect = [r for r in base if "policy" in r]
    attacks = [r for r in base if "variant" in r]
    bits = {v: metrics.mean_of(metrics.select(attacks, "variant", v),
                               "key_bits_recovered")
            for v in ("aes.undefended", "aes.defended")}
    ctx["report"]["accuracy"] = {
        **metrics.accuracy_from_cells(
            [r for r in devect if r["pass"] == 0]),
        "aes_key_bits": f"{bits['aes.undefended']:g} -> "
                        f"{bits['aes.defended']:g}"}
    ctx["report"]["sim_kuops_per_s"] = metrics.kuops_per_s(base)
    ctx["report"].update(metrics.stealth_rates(records))
    layers = metrics.library_layers(records) if ctx["trace"] else {}
    return e2e, layers


def suite_pass(ctx, pass_no, spans):
    """Run the 14 harnesses once; returns (pass wall s, max RSS MB)."""
    golden = load_golden("sidecars.json")
    out_dir = ctx["out_dir"] / f"pass{pass_no}"
    out_dir.mkdir(exist_ok=True)
    origin = ctx["origin"]
    start = time.perf_counter()
    peak = 0.0
    for binary in catalog.HARNESSES:
        sidecar = out_dir / f"{binary}.json"
        t0 = time.perf_counter()
        code, rss = runner.run_child(
            [str(runner.harness_path(ctx["build_dir"], binary)),
             "--jobs", "1", "--json", str(sidecar)],
            out_dir / f"{binary}.txt", cwd=out_dir)
        t1 = time.perf_counter()
        if spans is not None:
            spans.append({"id": len(spans), "name": f"harness:{binary}",
                          "parent": -1, "start": t0 - origin,
                          "end": t1 - origin})
        peak = max(peak, rss)
        errors = [] if code == 0 else [f"{binary}: exit code {code}"]
        if code == 0:
            with open(sidecar) as f:
                errors += checks.check_sidecar(binary, json.load(f), golden)
        ctx["outcome"].add((binary, pass_no), errors)
    return time.perf_counter() - start, peak


def suite_accuracy(out_dir):
    def average_cell(binary, column):
        with open(out_dir / f"{binary}.json") as f:
            table = json.load(f)["tables"][0]
        for row in table["rows"]:
            if row[0] == "average":
                return row[column]
        return "?"

    fig7a = (out_dir / "bench_fig7a_primeprobe_aes.txt").read_text()
    m = re.search(r"Summary: (\d+) bits leak without CSD, (\d+) with", fig7a)
    return {
        "energy_saved_vs_conv_pg":
            average_cell("bench_fig12_energy_breakdown", -1),
        "speedup_vs_conv_pg": average_cell("bench_fig13_devect_exec_time",
                                           -1),
        "vpu_gated_time": average_cell("bench_fig15_gated_time", 1),
        "aes_key_bits": f"{m.group(1)} -> {m.group(2)}" if m else "?",
        "stealth_overhead": average_cell("bench_fig8_stealth_overhead", -1),
    }


def workload_suite(ctx):
    records, _ = runner.run_driver(
        ctx["build_dir"], ["setup"],
        ctx["out_dir"] / "setup.jsonl")
    setups = [r for r in records if r["kind"] == "setup"]
    e2e = {"setup_s": statistics.median(
        r["build_s"] + r["construct_s"] for r in setups)}
    walls, peak = [], 0.0
    start = time.perf_counter()
    while True:
        wall, rss = suite_pass(ctx, len(walls), None)
        walls.append(wall)
        peak = max(peak, rss)
        if ctx["trace"] or \
                time.perf_counter() - start + wall > ctx["seconds"]:
            break
    ctx["report"]["accuracy"] = suite_accuracy(ctx["out_dir"] / "pass0")
    e2e.update(wall_s=statistics.fmean(walls), peak_rss_mb=peak)
    layers = {}
    if ctx["trace"]:
        spans = []
        traced_wall, _ = suite_pass(ctx, len(walls), spans)
        runner.write_chrome_trace(ctx["out_dir"] / "trace.json", spans)
        harness_s = {s["name"].split(":", 1)[1]: s["end"] - s["start"]
                     for s in spans}
        for binary, seconds in harness_s.items():
            layers[catalog.harness_metric(binary)] = seconds / traced_wall
        layers["sim.run_s"] = sum(harness_s.values())
        layers["trace.overhead_s"] = traced_wall - walls[0]
        layers["workloads.build_s"] = statistics.median(
            r["build_s"] for r in setups)
        layers["sim.construct_s"] = statistics.median(
            r["construct_s"] for r in setups)
    return e2e, layers


WORKLOADS = {
    "library": workload_library,
    "figure_suite": workload_suite,
}


def print_report(ctx, e2e, layers, outcome):
    rep = ctx["report"]
    print(f"# workload {ctx['workload']}  seed {ctx['seed']}  "
          f"trace {int(ctx['trace'])}  seconds {ctx['seconds']}")
    print(f"# build {rep['build']['build_type']} "
          f"({rep['build']['compiler']}), nproc {rep['host']['nproc']}, "
          f"load average at start {rep['host']['loadavg_1m_at_start']:.2f}")
    print("# CSD_* variables cleared: " +
          (", ".join(rep["cleared_env"]) or "none"))
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {catalog.UNITS[name]}")
    for name in ("sim_kuops_per_s", "undefended_kuops_per_s",
                 "defended_kuops_per_s"):
        if name in rep:
            print(f"{name} {rep[name]:.6g} kuops/s")
    for name, value in layers.items():
        print(f"{name} {value:.6g} {catalog.UNITS[name]}")
    if "span_self_s" in rep:
        for name, value in sorted(rep["span_self_s"].items()):
            print(f"# span self time {name} {value:.6g} s")
    acc = rep.get("accuracy", {})
    if acc:
        print("# accuracy (reproduction vs paper); the model is validated "
              "only against the paper's figure shapes (EXPERIMENTS.md), "
              "so no error figure qualifies a simulator speed-up")
        for key, value in acc.items():
            shown = f"{value * 100:.1f}%" if isinstance(value, float) \
                else value
            print(f"#   {key}: {shown} here, {PAPER[key]} in the paper")
    for err in outcome.errors()[:20]:
        print(f"# FAILED {err}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)

    cleared = runner.pin_environment()
    host = runner.host_info()
    try:
        build_dir = runner.build(ROOT, BENCH_DIR)
        out_dir = (build_dir / "runs" /
                   f"{opts.workload}-seed{opts.seed}-trace{opts.trace}")
        out_dir.mkdir(parents=True, exist_ok=True)
        info, _ = runner.run_driver(build_dir, ["info"],
                                    out_dir / "info.jsonl")
        runner.check_build(build_dir, info[0])
        ctx = {
            "workload": opts.workload, "seed": opts.seed,
            "seconds": opts.seconds, "trace": bool(opts.trace),
            "build_dir": build_dir, "out_dir": out_dir,
            "outcome": Outcome(), "origin": time.perf_counter(),
            "report": {"build": info[0], "host": host,
                       "cleared_env": cleared},
        }
        e2e, layers = WORKLOADS[opts.workload](ctx)
    except runner.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    outcome = ctx["outcome"]
    if opts.trace:
        reported = metrics.complete(layers)
    else:
        reported = {name: e2e[name] for name, *_ in catalog.END_TO_END}
    print_report(ctx, e2e, layers, outcome)
    correct = outcome.failed == 0 and outcome.attempted > 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": catalog.UNITS[name]}
                    for name, value in reported.items()},
    }
    (out_dir / "result.json").write_text(json.dumps(
        {**result, "report": ctx["report"], "errors": outcome.errors()},
        indent=1, default=str))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
