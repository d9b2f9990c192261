"""Aggregation of perf_driver records into end-to-end and per-layer metrics."""

import statistics

from . import catalog


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def passes(records, mode):
    return [r for r in records if r["kind"] == "pass" and r["mode"] == mode]


def cells_all(records):
    return [r for r in records if r["kind"] == "cell"]


def cells(records, mode, pass_no=None):
    return [r for r in records if r["kind"] == "cell" and r["mode"] == mode
            and (pass_no is None or r["pass"] == pass_no)]


def select(recs, key, value):
    return [r for r in recs if r[key] == value]


def total(recs, field):
    return sum(r.get(field, 0) for r in recs)


def setup_seconds(recs):
    return total(recs, "build_s") + total(recs, "construct_s")


def kuops_per_s(recs):
    return ratio(total(recs, "uops"), total(recs, "run_s")) / 1e3


def flow_cache_hit_rate(recs):
    lookups = sum(r["fc_hits"] + r["fc_misses"] + r["fc_invalidations"] +
                  r["fc_ctx_invalidations"] for r in recs)
    return ratio(total(recs, "fc_hits"), lookups)


def weighted_mpki(recs):
    return ratio(sum(r["l1d_mpki"] * r["instructions"] for r in recs),
                 total(recs, "instructions"))


def translate_share(traced):
    """Share of the traced cells' run time spent in CSD translate()."""
    return ratio(total(traced, "csd_translate_s"), total(traced, "run_s"))


def mean_of(recs, field):
    return statistics.fmean(r[field] for r in recs) if recs else 0.0


def library_end_to_end(records):
    """wall_s and setup_s of a library workload.

    wall_s is the mean over the run's passes: the host's speed shifts
    between levels that last tens of seconds, and the mean weighs every
    level in the run where the median keeps only the middle one.
    setup_s is the median over passes of each pass's summed set-up.
    """
    walls = [p["wall_s"] for p in passes(records, "base")]
    setups = []
    for p in passes(records, "base"):
        setups.append(setup_seconds(cells(records, "base", p["pass"])))
    return {"wall_s": statistics.fmean(walls) if walls else 0.0,
            "setup_s": median(setups)}


def _host_cost(paired, toggled, field, value):
    """Run seconds of the cells matching ``field == value`` untraced and
    with a host-only toggle, each run back to back with the other."""
    return (total(select(paired, field, value), "run_s"),
            total(select(toggled, field, value), "run_s"))


def _common_layers(records, out):
    base = cells(records, "base", 0)
    out["workloads.build_s"] = total(base, "build_s")
    out["sim.construct_s"] = total(base, "construct_s")
    out["sim.run_s"] = total(base, "run_s")
    out["sim_kuops_per_s"] = kuops_per_s(base)
    out["sim.instructions"] = total(base, "instructions")
    walls = {p["mode"]: p["wall_s"] for p in records if p["kind"] == "pass"}
    out["trace.overhead_s"] = walls.get("traced", 0.0) - walls.get("base", 0.0)


def library_layers(records):
    """Per-layer metrics of a traced library run."""
    out = {}
    _common_layers(records, out)
    _devect_layers([r for r in cells_all(records) if "policy" in r], out)
    _stealth_layers([r for r in cells_all(records) if "variant" in r], out)
    out.update(stealth_rates(records))
    return out


def _devect_layers(records, out):
    """The devectorization cells' layers, from their records alone."""
    base = cells(records, "base", 0)
    paired = cells(records, "paired_base")
    traced = cells(records, "traced")
    fc_off = cells(records, "flow_cache_off")
    cpi_off = cells(records, "cpi_stack_off")
    for p in catalog.POLICIES:
        recs = select(base, "policy", p)
        on, off = _host_cost(paired, fc_off, "policy", p)
        with_cpi, without_cpi = _host_cost(paired, cpi_off, "policy", p)
        out.update({
            f"sim.kuops_per_s.{p}": kuops_per_s(recs),
            f"sim.uops.{p}": total(recs, "uops"),
            f"sim.cycles.{p}": total(recs, "cycles"),
            f"decode.flow_cache.hit_rate.{p}": flow_cache_hit_rate(recs),
            f"decode.flow_cache.invalidations.{p}":
                total(recs, "fc_invalidations") +
                total(recs, "fc_ctx_invalidations"),
            f"decode.flow_cache.speedup.{p}": ratio(off, on),
            f"decode.uop_cache.hit_rate.{p}":
                mean_of(recs, "uop_cache_hit_rate"),
            f"memory.l1d.mpki.{p}": weighted_mpki(recs),
            f"cpu.cpi_stack.host_share.{p}": 1.0 - ratio(without_cpi,
                                                         with_cpi),
            f"power.gated_fraction.{p}": mean_of(recs, "gated_fraction"),
            f"power.wake_stall_cycles.{p}": total(recs, "wake_stall_cycles"),
        })
    csd = select(traced, "policy", "csd_devect")
    out["csd.translate_share.csd_devect"] = translate_share(csd)
    out["csd.translate_calls.csd_devect"] = total(csd, "csd_translate_calls")
    out["csd.cached_replays.csd_devect"] = total(csd, "csd_cached_replays")
    out["csd.tick_calls.csd_devect"] = total(csd, "csd_tick_calls")
    out["csd.devect_uops.csd_devect"] = total(
        select(base, "policy", "csd_devect"), "devect_uops")
    for i, bucket in enumerate(catalog.CPI_BUCKETS):
        out[f"cpu.cpi.{bucket}"] = sum(r["cpi"][i] for r in base)


def _stealth_layers(records, out):
    """The attack variants' layers, from their records alone."""
    base = cells(records, "base", 0)
    paired = cells(records, "paired_base")
    traced = cells(records, "traced")
    toggled = {m: cells(records, m)
               for m in ("flow_cache_off", "superblock_off", "monitor_off")}
    for v in catalog.VARIANTS:
        recs = select(base, "variant", v)
        on, fc_off = _host_cost(paired, toggled["flow_cache_off"],
                                "variant", v)
        _, sb_off = _host_cost(paired, toggled["superblock_off"],
                               "variant", v)
        _, mon_off = _host_cost(paired, toggled["monitor_off"], "variant", v)
        out.update({
            f"sim.kuops_per_s.{v}": kuops_per_s(recs),
            f"sim.uops.{v}": total(recs, "uops"),
            f"decode.flow_cache.hit_rate.{v}": flow_cache_hit_rate(recs),
            f"decode.flow_cache.invalidations.{v}":
                total(recs, "fc_invalidations") +
                total(recs, "fc_ctx_invalidations"),
            f"decode.flow_cache.speedup.{v}": ratio(fc_off, on),
            f"decode.superblock.uop_coverage.{v}":
                ratio(total(recs, "sb_uops"), total(recs, "uops")),
            f"decode.superblock.speedup.{v}": ratio(sb_off, on),
            f"memory.l1d.mpki.{v}": weighted_mpki(recs),
            f"memory.set_monitor.host_share.{v}": 1.0 - ratio(mon_off, on),
            f"sec.bits_per_obs.{v}": mean_of(recs, "bits_per_obs"),
        })
    for v in catalog.DEFENDED:
        recs = select(traced, "variant", v)
        out[f"csd.translate_share.{v}"] = translate_share(recs)
        out[f"csd.translate_calls.{v}"] = total(recs, "csd_translate_calls")
        out[f"csd.cached_replays.{v}"] = total(recs, "csd_cached_replays")
        out[f"csd.tick_calls.{v}"] = total(recs, "csd_tick_calls")
        out[f"csd.decoy_uops.{v}"] = total(select(base, "variant", v),
                                           "decoy_uops")
    for v in ("aes.undefended", "aes.defended"):
        out[f"sec.key_bits_recovered.{v}"] = mean_of(
            select(base, "variant", v), "key_bits_recovered")
    for v in ("rsa.undefended", "rsa.defended"):
        out[f"sec.rsa_accuracy.{v}"] = mean_of(select(base, "variant", v),
                                               "rsa_accuracy")


def stealth_rates(records):
    """Simulated kuops/s per attack half, over every untraced pass."""
    base = [r for r in cells(records, "base") if "variant" in r]
    return {
        "undefended_kuops_per_s": kuops_per_s(
            [r for r in base if r["variant"].endswith(".undefended")]),
        "defended_kuops_per_s": kuops_per_s(
            [r for r in base if r["variant"].endswith(".defended")]),
    }


def complete(per_layer):
    """Every catalogue per-layer metric, 0 where the workload has none."""
    return {name: float(per_layer.get(name, 0.0))
            for name, *_ in catalog.PER_LAYER}


def accuracy_from_cells(base):
    """The devectorization headline numbers, computed like Figs. 12/13/15
    from one pass of the 39 cells."""
    by = {(r["preset"], r["policy"]): r for r in base}
    presets = sorted({r["preset"] for r in base})
    if not presets:
        return {}
    savings, csd_norm, conv_norm, gated = [], [], [], []
    for p in presets:
        on, conv, csd = (by[(p, "always_on")], by[(p, "conv_pg")],
                         by[(p, "csd_devect")])
        savings.append(1.0 - csd["energy_total"] / conv["energy_total"])
        csd_norm.append(csd["cycles"] / on["cycles"])
        conv_norm.append(conv["cycles"] / on["cycles"])
        gated.append(csd["gated_fraction"])
    return {
        "energy_saved_vs_conv_pg": statistics.fmean(savings),
        "speedup_vs_conv_pg": statistics.fmean(conv_norm) /
        statistics.fmean(csd_norm) - 1.0,
        "vpu_gated_time": statistics.fmean(gated),
    }
