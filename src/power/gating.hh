/**
 * @file
 * VPU power-gating controller and policies (paper §V, Fig. 5).
 *
 * Three policies are modeled:
 *  - AlwaysOn: the VPU never gates (baseline of Fig. 13).
 *  - ConventionalPG: gate after an idle period, wake on demand while
 *    the pipeline stalls for the 30-cycle power-on.
 *  - CsdDevect: a windowed vector-activity counter (simple vector
 *    instructions count 1, complex ones their uop count); below the
 *    low watermark the controller gates the VPU and turns on CSD
 *    devectorization, above the high watermark it powers the unit back
 *    on while devectorization hides the wake latency.
 */

#ifndef CSD_POWER_GATING_HH
#define CSD_POWER_GATING_HH

#include <deque>

#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "isa/macroop.hh"
#include "power/energy.hh"

namespace csd
{

/** Gating policy selector. */
enum class GatingPolicy : std::uint8_t
{
    AlwaysOn,
    ConventionalPG,
    CsdDevect,
};

/** VPU power state. */
enum class VpuState : std::uint8_t
{
    On,
    PoweringOn,  //!< wake initiated, not yet usable
    Gated,
};

/** Per-SSE-instruction classification (Fig. 16's categories). */
enum class SseExecClass : std::uint8_t
{
    PoweredOn,   //!< executed on the VPU
    PoweringOn,  //!< devectorized while the VPU was waking
    PowerGated,  //!< devectorized while the VPU was gated
};

/** Controller configuration. */
struct GatingParams
{
    GatingPolicy policy = GatingPolicy::CsdDevect;

    /** Instruction window over which vector activity is counted. */
    unsigned windowInstrs = 256;
    /** Gate + devectorize below this count (CsdDevect). */
    unsigned lowWatermark = 2;
    /** Initiate power-on above this count (CsdDevect). */
    unsigned highWatermark = 8;

    /**
     * ConventionalPG: idle cycles before gating (a realistic
     * idle-detect interval; always clamped up to the energy model's
     * break-even time).
     */
    Cycles idleGateThreshold = 150;

    /** f(name, field) once per field. The manifest hash derives from
     *  it; tests/sim/test_manifest.cc fails on a field left out. */
    template <typename F>
    void
    visit(F &&f) const
    {
        f("policy", policy);
        f("windowInstrs", windowInstrs);
        f("lowWatermark", lowWatermark);
        f("highWatermark", highWatermark);
        f("idleGateThreshold", idleGateThreshold);
    }
};

/**
 * The unit-criticality-driven power-gating controller.
 *
 * Driven in program order: the simulator calls onMacroOp() for every
 * instruction with the current cycle; the returned directive says
 * whether the instruction must be devectorized and how many stall
 * cycles a demand wake costs (ConventionalPG only).
 */
class PowerGateController
{
  public:
    PowerGateController(const GatingParams &params,
                        const EnergyModel &energy);

    /** Directive for one instruction. */
    struct Directive
    {
        bool devectorize = false;  //!< translate to scalar uops
        Cycles stallCycles = 0;    //!< demand-wake stall (conventional)
    };

    /**
     * Observe one macro-op in program order at cycle @p now.
     * @param vec_uops the VPU uop count of the instruction's native
     *        translation (0 for non-vector instructions)
     */
    Directive onMacroOp(const MacroOp &op, Tick now, unsigned vec_uops);

    /** Finish accounting at the end of simulation. */
    void finalize(Tick now);

    VpuState state() const { return state_; }

    /** The configuration this controller was built with. */
    const GatingParams &params() const { return params_; }

    // --- results -----------------------------------------------------

    Cycles gatedCycles() const { return gatedCycles_; }
    Cycles wakingCycles() const { return wakingCycles_; }
    Cycles onCycles() const { return onCycles_; }
    std::uint64_t gateEvents() const { return gateEvents_.value(); }

    std::uint64_t sseCount(SseExecClass cls) const
    {
        return sseCounts_[static_cast<unsigned>(cls)].value();
    }

    /** Fraction of time the VPU spent power-gated (Fig. 15). */
    double gatedFraction() const;

    StatGroup &stats() { return stats_; }

  private:
    void switchState(VpuState next, Tick now);
    void accountUntil(Tick now);
    bool vpuUsable(Tick now);

    GatingParams params_;
    const EnergyModel &energy_;

    VpuState state_ = VpuState::On;
    Tick stateSince_ = 0;
    Tick wakeDoneAt_ = 0;
    Tick lastVectorUse_ = 0;
    Tick lastNow_ = 0;

    // Sliding window of per-instruction vector weights.
    std::deque<unsigned> window_;
    std::uint64_t windowCount_ = 0;

    Cycles gatedCycles_ = 0;
    Cycles wakingCycles_ = 0;
    Cycles onCycles_ = 0;

    StatGroup stats_;
    Counter gateEvents_;
    Counter wakeEvents_;
    Counter demandWakes_;
    Counter sseCounts_[3];
    Distribution gatedStretch_{0, 20000, 20};
    Formula gatedFrac_;
};

} // namespace csd

#endif // CSD_POWER_GATING_HH
