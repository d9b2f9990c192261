/**
 * @file
 * Ablation (paper §IV-E) — timing-noise NOP injection.
 *
 * The paper suggests CSD could "introduce a random stream of NOPs ...
 * to skew timing analysis". This harness sweeps the noise amplitude
 * (max NOPs per instruction) and reports the execution-time overhead
 * and the run-to-run timing spread an analyst would face, using the
 * AES datapoint.
 */

#include <cstdio>
#include <iterator>

#include "bench/common/bench_util.hh"
#include "bench/common/parallel.hh"
#include "csd/csd.hh"
#include "sim/simulation.hh"
#include "workloads/aes.hh"

using namespace csd;
using namespace csd::bench;

namespace
{

struct NoiseRun
{
    Tick cycles;
    std::uint64_t uops;
};

NoiseRun
runOnce(const AesWorkload &workload, unsigned max_nops,
        std::uint64_t seed)
{
    Simulation sim(workload.program);
    MsrFile msrs;
    ContextSensitiveDecoder csd(msrs);
    if (max_nops > 0) {
        csd.noiseMaxNops = max_nops;
        csd.seedNoise(seed);
        msrs.setControl(ctrlTimingNoise);
        sim.setCsd(&csd);
    }
    for (int block = 0; block < 50; ++block) {
        sim.restart();
        sim.runToHalt();
    }
    benchNoteEngagement(sim);
    return {sim.cycles(), sim.uopsExecuted()};
}

} // namespace

int
main(int argc, char **argv)
{
    benchInit(argc, argv);
    benchHeader("Ablation", "Timing-noise NOP injection (§IV-E)",
                "Overhead and run-to-run spread vs noise amplitude.");

    std::array<std::uint8_t, 16> key{};
    for (unsigned i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(0x11 * i);
    const AesWorkload workload = AesWorkload::build(key);

    const unsigned amplitudes[] = {1u, 2u, 3u, 5u};
    const std::uint64_t seeds[] = {11ull, 22ull, 33ull, 44ull};
    const std::size_t num_seeds = std::size(seeds);

    // Flatten (amplitude x seed) plus the noise-off baseline at the
    // end; workers only simulate, rendering stays in sweep order.
    const auto runs = parallelMap<NoiseRun>(
        std::size(amplitudes) * num_seeds + 1, [&](std::size_t idx) {
            if (idx == std::size(amplitudes) * num_seeds)
                return runOnce(workload, 0, 0);
            return runOnce(workload, amplitudes[idx / num_seeds],
                           seeds[idx % num_seeds]);
        });
    const NoiseRun base = runs.back();

    Table table({"max NOPs/instr", "norm. time", "run-to-run spread",
                 "uop expansion"});
    table.addRow({"0 (off)", "1.000", "0 cycles", "-"});
    for (std::size_t a = 0; a < std::size(amplitudes); ++a) {
        const unsigned max_nops = amplitudes[a];
        Tick lo = ~Tick{0}, hi = 0;
        std::uint64_t uops = 0;
        for (std::size_t s = 0; s < num_seeds; ++s) {
            const NoiseRun run = runs[a * num_seeds + s];
            lo = std::min(lo, run.cycles);
            hi = std::max(hi, run.cycles);
            uops = std::max(uops, run.uops);
        }
        const double norm = static_cast<double>(lo + hi) / 2.0 /
                            static_cast<double>(base.cycles);
        table.addRow({std::to_string(max_nops), fmt(norm),
                      std::to_string(hi - lo) + " cycles",
                      pct(static_cast<double>(uops) / base.uops - 1.0)});
    }
    table.print();

    std::printf("\nEach seed (the chip's entropy) yields a different "
                "schedule: a timing analyst sees the spread, not the "
                "signal.\nCost is dominated by uncacheable noisy flows "
                "falling back to legacy decode (a deliberate design: "
                "cached\nnoise would replay one fixed instance and "
                "defeat itself).\n");
    return 0;
}
