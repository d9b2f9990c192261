"""The benchmark's workloads and metric catalogue.

BENCHMARK.json lists the same metrics; tests/test_perfbench.py keeps
the two in step. Per-layer metrics that a workload does not exercise are
reported as 0 on it (e.g. ``bench.*.wall_share`` on the library
workloads); every per-layer time in seconds is measured on every
workload, so none reads the same on every run.
"""

WORKLOADS = {
    "library":
        "Figs. 12-16 devect cells, detailed (cpu, decode, power), then Fig. 7 "
        "attacks, cache-only (flow cache, superblock, csd/dift, memory, sec)",
    "figure_suite":
        "the 14 figure, ablation and uop-cache harness binaries at --jobs 1: "
        "the only workload that exercises the harness layer (bench/)",
}

#: (name, unit, better, bound). Bounds are shares of the parent median.
#: Wall times on a shared 4-vCPU VM swing 10-20% between runs, and the
#: host's speed can drift 2x over minutes as neighbours come and go,
#: hence 0.25.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

POLICIES = ["always_on", "conv_pg", "csd_devect"]
VARIANTS = ["aes.undefended", "aes.defended", "rsa.undefended",
            "rsa.defended"]
DEFENDED = ["aes.defended", "rsa.defended"]

CPI_BUCKETS = [
    "base", "frontend_l1i", "frontend_decode", "backend_rob",
    "backend_dep", "backend_port", "backend_commit", "mem_l1d", "mem_l2",
    "mem_llc", "mem_dram", "csd_decoy", "csd_devect", "vpu_wake",
]

HARNESSES = [
    "bench_fig7a_primeprobe_aes",
    "bench_fig7b_flushreload_rsa",
    "bench_fig8_stealth_overhead",
    "bench_fig9_uop_expansion",
    "bench_fig10_mpki",
    "bench_fig11_watchdog_sweep",
    "bench_uopcache_hitrate",
    "bench_fig12_energy_breakdown",
    "bench_fig13_devect_exec_time",
    "bench_fig14_dynamic_uops",
    "bench_fig15_gated_time",
    "bench_fig16_sse_breakdown",
    "bench_ablation_decoy_style",
    "bench_ablation_timing_noise",
]


def harness_metric(binary):
    """Per-layer metric: one harness binary's share of the suite's wall
    time."""
    return f"bench.{binary[len('bench_'):]}.wall_share"


def _per_layer():
    m = [
        ("workloads.build_s", "s", "lower"),
        ("sim.construct_s", "s", "lower"),
        ("sim.run_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("sim_kuops_per_s", "kuops/s", "higher"),
        ("undefended_kuops_per_s", "kuops/s", "higher"),
        ("defended_kuops_per_s", "kuops/s", "higher"),
        ("sim.instructions", "count", "lower"),
    ]
    for p in POLICIES:
        m += [
            (f"sim.kuops_per_s.{p}", "kuops/s", "higher"),
            (f"sim.uops.{p}", "count", "lower"),
            (f"sim.cycles.{p}", "cycles", "lower"),
            (f"decode.flow_cache.hit_rate.{p}", "ratio", "higher"),
            (f"decode.flow_cache.invalidations.{p}", "count", "lower"),
            (f"decode.flow_cache.speedup.{p}", "ratio", "higher"),
            (f"decode.uop_cache.hit_rate.{p}", "ratio", "higher"),
            (f"memory.l1d.mpki.{p}", "mpki", "lower"),
            (f"cpu.cpi_stack.host_share.{p}", "ratio", "lower"),
            (f"power.gated_fraction.{p}", "ratio", "higher"),
            (f"power.wake_stall_cycles.{p}", "cycles", "lower"),
        ]
    m += [
        ("csd.translate_share.csd_devect", "ratio", "lower"),
        ("csd.translate_calls.csd_devect", "count", "lower"),
        ("csd.cached_replays.csd_devect", "count", "higher"),
        ("csd.tick_calls.csd_devect", "count", "lower"),
        ("csd.devect_uops.csd_devect", "count", "lower"),
    ]
    m += [(f"cpu.cpi.{b}", "cycles", "lower") for b in CPI_BUCKETS]
    for v in VARIANTS:
        m += [
            (f"sim.kuops_per_s.{v}", "kuops/s", "higher"),
            (f"sim.uops.{v}", "count", "lower"),
            (f"decode.flow_cache.hit_rate.{v}", "ratio", "higher"),
            (f"decode.flow_cache.invalidations.{v}", "count", "lower"),
            (f"decode.flow_cache.speedup.{v}", "ratio", "higher"),
            (f"decode.superblock.uop_coverage.{v}", "ratio", "higher"),
            (f"decode.superblock.speedup.{v}", "ratio", "higher"),
            (f"memory.l1d.mpki.{v}", "mpki", "lower"),
            (f"memory.set_monitor.host_share.{v}", "ratio", "lower"),
            (f"sec.bits_per_obs.{v}", "bits/obs", "lower"),
        ]
    for v in DEFENDED:
        m += [
            (f"csd.translate_share.{v}", "ratio", "lower"),
            (f"csd.translate_calls.{v}", "count", "lower"),
            (f"csd.cached_replays.{v}", "count", "higher"),
            (f"csd.tick_calls.{v}", "count", "lower"),
            (f"csd.decoy_uops.{v}", "count", "lower"),
        ]
    m += [
        ("sec.key_bits_recovered.aes.undefended", "bits", "higher"),
        ("sec.key_bits_recovered.aes.defended", "bits", "lower"),
        ("sec.rsa_accuracy.rsa.undefended", "ratio", "higher"),
        ("sec.rsa_accuracy.rsa.defended", "ratio", "lower"),
    ]
    m += [(harness_metric(b), "ratio", "lower") for b in HARNESSES]
    return m


PER_LAYER = _per_layer()
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
