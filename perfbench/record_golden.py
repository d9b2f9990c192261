#!/usr/bin/env python3
"""Record the benchmark's golden outputs from the current build.

    python3 perfbench/record_golden.py

Writes perfbench/golden/digests.json (per-cell digests of the simulated
results of the library workload's devectorization cells and attack
variants at the default seed) and
perfbench/golden/sidecars.json (stats and tables of every figure
harness sidecar). Re-record only for a change that is meant to alter
simulated results, and say so in the change.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from pb import catalog, inputs, metrics, runner  # noqa: E402
from run import cell_id  # noqa: E402


def main():
    runner.pin_environment()
    build_dir = runner.build(BENCH_DIR.parent, BENCH_DIR)
    seed = inputs.DEFAULT_SEED
    work = Path(tempfile.mkdtemp(dir=build_dir))
    records, _ = runner.run_driver(
        build_dir, ["library", "--spec-seed", str(inputs.spec_seed(seed)),
                    *inputs.stealth_args(inputs.stealth_inputs(seed)),
                    "--seconds", "0"], work / "library.jsonl")
    digests = {}
    for group, key in (("devect_cells", "policy"),
                       ("attack_variants", "variant")):
        digests[group] = {
            cell_id(r): {"digest": r["digest"],
                         "digest_core": r["digest_core"]}
            for r in metrics.cells(records, "base", 0) if key in r}
    sidecars = {}
    for binary in catalog.HARNESSES:
        sidecar = work / f"{binary}.json"
        code, _ = runner.run_child(
            [str(runner.harness_path(build_dir, binary)), "--jobs", "1",
             "--json", str(sidecar)], work / f"{binary}.txt", cwd=work)
        if code:
            sys.exit(f"{binary} exited {code}")
        data = json.loads(sidecar.read_text())
        sidecars[binary] = {"stats": data["stats"], "tables": data["tables"]}
    golden = BENCH_DIR / "golden"
    golden.mkdir(exist_ok=True)
    (golden / "digests.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n")
    (golden / "sidecars.json").write_text(
        json.dumps(sidecars, indent=1) + "\n")


if __name__ == "__main__":
    main()
