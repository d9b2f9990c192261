"""Tests of the benchmark's own logic (no build needed).

    python3 -m unittest discover perfbench/tests
"""

import copy
import json
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from pb import catalog, checks, inputs, metrics  # noqa: E402


def golden(name):
    return json.loads((BENCH_DIR / "golden" / name).read_text())


def devect_cell(**over):
    rec = {"cell": "namd.csd_devect", "preset": "namd",
           "policy": "csd_devect", "mode": "base", "cycles": 10, "cpi": [4, 6],
           "wake_stall_cycles": 0, "uops": 5, "instructions": 5}
    rec.update(over)
    return rec


def aes_cell(variant, bits, determined=16):
    return {"cell": variant, "variant": variant, "input": "00" * 16,
            "key_bits_recovered": bits, "nibbles_determined": determined}


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(inputs.stealth_inputs(7), inputs.stealth_inputs(7))

    def test_different_seed_changes_every_input(self):
        a, b = inputs.stealth_inputs(1), inputs.stealth_inputs(2)
        for key in ("aes_undefended", "aes_defended", "rsa_undefended",
                    "rsa_defended", "pt_seed"):
            self.assertNotEqual(a[key], b[key], key)
        self.assertNotEqual(inputs.spec_seed(1), inputs.spec_seed(2))

    def test_default_seed_builds_the_figures_programs(self):
        self.assertEqual(inputs.spec_seed(inputs.DEFAULT_SEED), 1)

    def test_rsa_exponents_have_fixed_weight(self):
        for seed in range(1, 20):
            for e in inputs.stealth_inputs(seed)["rsa_defended"]:
                self.assertEqual(e >> (inputs.RSA_EXP_BITS - 1), 1)
                self.assertEqual(bin(e).count("1"), inputs.RSA_EXP_BITS // 2)

    def test_driver_args_carry_every_input(self):
        ins = inputs.stealth_inputs(3)
        args = inputs.stealth_args(ins)
        self.assertEqual(args.count("--aes-undefended"),
                         inputs.AES_UNDEFENDED_KEYS)
        self.assertIn(ins["aes_defended"][0], args)


class Checks(unittest.TestCase):
    def test_recorded_digest_passes_and_tampered_fails(self):
        cell, want = next(iter(golden("digests.json")
                               ["devect_cells"].items()))
        self.assertEqual(checks.check_digest(cell, want["digest"],
                                             want["digest"]), [])
        tampered = format(int(want["digest"], 16) ^ 1, "016x")
        self.assertTrue(checks.check_digest(cell, tampered, want["digest"]))
        self.assertTrue(checks.check_digest(cell, want["digest"], None))

    def test_key_bits(self):
        ok = aes_cell("aes.undefended", 64)
        self.assertEqual(checks.check_stealth_cell(ok), [])
        # A wrong expectation and a wrong result both fail.
        self.assertTrue(checks.check_stealth_cell(ok, aes_undefended=63))
        self.assertTrue(checks.check_stealth_cell(
            aes_cell("aes.undefended", 60)))
        self.assertTrue(checks.check_stealth_cell(
            aes_cell("aes.defended", 4)))
        self.assertTrue(checks.check_stealth_cell(
            aes_cell("aes.defended", 0), aes_defended=64))

    def test_undetermined_key_bytes(self):
        # One byte left undetermined by the sample cap is allowed ...
        self.assertEqual(checks.check_stealth_cell(
            aes_cell("aes.undefended", 60, determined=15)), [])
        # ... a wrong nibble or a second undetermined byte is not.
        self.assertTrue(checks.check_stealth_cell(
            aes_cell("aes.undefended", 56, determined=15)))
        self.assertTrue(checks.check_stealth_cell(
            aes_cell("aes.undefended", 56, determined=14)))

    def test_rsa(self):
        rec = {"cell": "rsa.defended", "variant": "rsa.defended",
               "input": "b72d1", "rsa_accuracy": 0.55,
               "rsa_output_ok": True}
        self.assertEqual(checks.check_stealth_cell(rec), [])
        self.assertTrue(checks.check_stealth_cell(
            dict(rec, rsa_accuracy=0.9)))
        self.assertTrue(checks.check_stealth_cell(
            dict(rec, rsa_output_ok=False)))
        und = dict(rec, cell="rsa.undefended", variant="rsa.undefended")
        self.assertTrue(checks.check_stealth_cell(und))
        self.assertEqual(checks.check_stealth_cell(
            dict(und, rsa_accuracy=1.0)), [])

    def test_devect_invariants(self):
        self.assertEqual(checks.check_devect_cell(devect_cell()), [])
        self.assertTrue(checks.check_devect_cell(devect_cell(cycles=11)))
        self.assertTrue(checks.check_devect_cell(
            devect_cell(wake_stall_cycles=3)))
        self.assertEqual(checks.check_devect_cell(
            devect_cell(policy="conv_pg", wake_stall_cycles=3)), [])

    def test_library_cells_meet_their_own_invariants(self):
        self.assertTrue(run.check_cell(devect_cell(cycles=11)))
        self.assertTrue(run.check_cell(aes_cell("aes.defended", 4)))
        self.assertEqual(run.check_cell(aes_cell("aes.undefended", 64)), [])

    def test_cpi_stack_required_unless_toggled_off(self):
        for mode in ("base", "traced", "paired_base", "flow_cache_off"):
            self.assertTrue(checks.check_devect_cell(
                devect_cell(mode=mode, cpi=[])), mode)
        self.assertEqual(checks.check_devect_cell(
            devect_cell(mode="cpi_stack_off", cpi=[])), [])

    def test_golden_sidecar_row_altered(self):
        sidecars = golden("sidecars.json")
        binary = "bench_fig13_devect_exec_time"
        run = copy.deepcopy(sidecars[binary])
        self.assertEqual(checks.check_sidecar(binary, run, sidecars), [])
        altered = copy.deepcopy(sidecars)
        altered[binary]["tables"][0]["rows"][0][1] = "0.999"
        self.assertTrue(checks.check_sidecar(binary, run, altered))
        self.assertTrue(checks.check_sidecar(binary, run, {}))

    def test_full_digest_compared_where_recorded(self):
        golden_cell = {"c": {"digest_core": "1", "digest": "2"}}
        base = {"kind": "cell", "cell": "c", "mode": "base", "pass": 0,
                "digest_core": "1", "digest": "2"}
        toggled = {"kind": "cell", "cell": "c", "mode": "cpi_stack_off",
                   "pass": 1, "digest_core": "1"}
        outcome = run.Outcome()
        run.verify_cells([base, toggled], outcome, lambda r: [], golden_cell)
        self.assertEqual((outcome.attempted, outcome.failed), (2, 0))
        outcome = run.Outcome()
        tampered = dict(base, digest="3")
        tampered["pass"] = 1
        run.verify_cells([base, tampered], outcome, lambda r: [], golden_cell)
        self.assertEqual((outcome.attempted, outcome.failed), (2, 2))

    def test_runs_must_agree(self):
        self.assertEqual(checks.check_same_digest("c", ["a", "a"]), [])
        self.assertTrue(checks.check_same_digest("c", ["a", "b"]))

    def test_golden_covers_every_cell(self):
        digests = golden("digests.json")
        self.assertEqual(len(digests["devect_cells"]),
                         13 * len(catalog.POLICIES))
        ins = inputs.stealth_inputs(inputs.DEFAULT_SEED)
        self.assertEqual(len(digests["attack_variants"]),
                         sum(len(ins[k]) for k in (
                             "aes_undefended", "aes_defended",
                             "rsa_undefended", "rsa_defended")))
        self.assertEqual(sorted(golden("sidecars.json")),
                         sorted(catalog.HARNESSES))


class Catalog(unittest.TestCase):
    def test_benchmark_json_matches_catalog(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(catalog.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in spec["end_to_end"]], catalog.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            catalog.PER_LAYER)

    def test_limits(self):
        self.assertLessEqual(len(catalog.PER_LAYER), 128)
        names = [n for n, *_ in catalog.END_TO_END + catalog.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(len(n) <= 64 for n in names))

    def test_library_wall_is_mean_and_setup_is_median_over_passes(self):
        records = [{"kind": "pass", "mode": "base", "pass": p, "wall_s": w}
                   for p, w in enumerate([4.0, 5.0, 9.0])]
        for p, setup in enumerate([0.1, 0.2, 0.6]):
            records.append(devect_cell(**{"kind": "cell", "pass": p,
                                          "build_s": setup,
                                          "construct_s": 0.0}))
        out = metrics.library_end_to_end(records)
        self.assertAlmostEqual(out["wall_s"], 6.0)
        self.assertAlmostEqual(out["setup_s"], 0.2)

    def test_complete_fills_missing_layers_with_zero(self):
        out = metrics.complete({"sim.run_s": 2.0})
        self.assertEqual(len(out), len(catalog.PER_LAYER))
        self.assertEqual(out["sim.run_s"], 2.0)
        self.assertEqual(out["bench.fig13_devect_exec_time.wall_share"], 0.0)

    def test_every_time_metric_is_measured_on_every_workload(self):
        # A time in seconds reported as a constant 0 would read the same
        # on every run; N/A layers use counts or ratios instead.
        times = {n for n, unit, _ in catalog.PER_LAYER if unit == "s"}
        self.assertEqual(times, {"workloads.build_s", "sim.construct_s",
                                 "sim.run_s", "trace.overhead_s"})


if __name__ == "__main__":
    unittest.main()
