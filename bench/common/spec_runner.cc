#include "bench/common/spec_runner.hh"

#include "bench/common/bench_util.hh"
#include "csd/csd.hh"

namespace csd::bench
{

SpecRunResult
runSpecPolicy(const SpecPreset &preset, GatingPolicy policy,
              const SpecRunConfig &config)
{
    unsigned phase_pairs = config.phasePairs;
    if (phase_pairs == 0) {
        const std::uint64_t per_pair =
            preset.scalarPhaseLen + preset.vectorPhaseLen + 1;
        phase_pairs = static_cast<unsigned>(
            std::max<std::uint64_t>(3,
                                    config.targetInstructions / per_pair));
    }
    const SpecWorkload workload =
        SpecWorkload::build(preset, phase_pairs, config.seed);

    SimParams params;
    params.mode = SimMode::Detailed;
    params.energy = config.energy;
    Simulation sim(workload.program, params);
    sim.enableCpiStack();

    EnergyModel energy_model(config.energy);
    GatingParams gating = config.gating;
    gating.policy = policy;
    PowerGateController controller(gating, energy_model);
    sim.setPowerController(&controller);

    MsrFile msrs;
    ContextSensitiveDecoder csd(msrs);
    if (policy == GatingPolicy::CsdDevect)
        sim.setCsd(&csd);

    sim.runToHalt();
    controller.finalize(sim.cycles());
    benchNoteEngagement(sim);

    SpecRunResult result;
    result.name = preset.name;
    result.policy = policy;
    result.cycles = sim.cycles();
    result.instructions = sim.instructions();
    result.uops = sim.uopsExecuted();
    result.energy = sim.energy();
    const double total_cycles = static_cast<double>(
        controller.gatedCycles() + controller.wakingCycles() +
        controller.onCycles());
    result.gatedFraction = controller.gatedFraction();
    result.wakingFraction = total_cycles == 0
        ? 0.0
        : static_cast<double>(controller.wakingCycles()) / total_cycles;
    result.sseOn = controller.sseCount(SseExecClass::PoweredOn);
    result.sseWaking = controller.sseCount(SseExecClass::PoweringOn);
    result.sseGated = controller.sseCount(SseExecClass::PowerGated);
    result.gateEvents = controller.gateEvents();
    result.wakeStallCycles =
        sim.stats().counterValue("vpu_wake_stalls");
    result.devectUops =
        sim.stats().counterValue("devect_uops_executed");
    result.cpiCycles = sim.cpiStack()->buckets();
    return result;
}

} // namespace csd::bench
