/**
 * @file
 * The top-level simulator: program-order driver connecting the
 * translator (native or context-sensitive), the functional executor,
 * the decode front end, the out-of-order back end, the cache
 * hierarchy, DIFT, and the power-gating controller.
 *
 * Two fidelity levels share all functional and cache state:
 *  - detailed: full front-end + back-end cycle accounting (performance
 *    experiments, Figs. 8-16)
 *  - cache-only: functional execution with cache residency/timing only
 *    (security experiments, Fig. 7 — attack success depends on cache
 *    state, not pipeline cycles)
 */

#ifndef CSD_SIM_SIMULATION_HH
#define CSD_SIM_SIMULATION_HH

#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/trace.hh"
#include "cpu/arch_state.hh"
#include "cpu/backend.hh"
#include "cpu/branch_pred.hh"
#include "cpu/cpi_stack.hh"
#include "cpu/executor.hh"
#include "cpu/lifecycle.hh"
#include "decode/flow_cache.hh"
#include "decode/frontend.hh"
#include "decode/translator.hh"
#include "dift/taint.hh"
#include "isa/program.hh"
#include "memory/hierarchy.hh"
#include "obs/context.hh"
#include "obs/manifest.hh"
#include "power/energy.hh"
#include "power/gating.hh"

namespace csd
{

class ContextSensitiveDecoder;
class FastPath;

/** Simulation fidelity. */
enum class SimMode : std::uint8_t
{
    Detailed,   //!< front end + OoO back end cycle model
    CacheOnly,  //!< functional + cache residency (fast)
};

/**
 * The cache-only timing model, shared by the interpreter
 * (Simulation::stepCacheOnly) and the superblock tier
 * (FastPath::execBlock) so both advance the same caches and the same
 * pseudo-clock.
 */
namespace cache_only
{

/**
 * Instruction fetch: touch the I-cache once per cache block of @p op's
 * encoding, skipping the block fetched last (@p last_fetch, updated).
 * Returns the summed fetch latency.
 */
inline Cycles
fetchMacro(MemHierarchy &mem, const MacroOp &op, Addr &last_fetch)
{
    Cycles latency = 0;
    const Addr last = blockAlign(op.pc + op.length - 1);
    for (Addr block = blockAlign(op.pc); block <= last;
         block += cacheBlockSize) {
        if (block != last_fetch) {
            latency += mem.fetchInstr(block).latency;
            last_fetch = block;
        }
    }
    return latency;
}

/**
 * Timing probe for one delivered (non-eliminated) uop of group
 * @p handler at effective address @p eff. Returns the latency it adds.
 */
CSD_EXEC_INLINE Cycles
probeUop(MemHierarchy &mem, const Uop &uop, UopHandler handler, Addr eff)
{
    switch (handler) {
      case UopHandler::Load:
      case UopHandler::LoadVec:
        return (uop.instrFetch ? mem.fetchInstr(eff) : mem.readData(eff))
            .latency;
      case UopHandler::Store:
      case UopHandler::StoreImm:
      case UopHandler::StoreVec:
        mem.writeData(eff);
        return 0;
      case UopHandler::CacheFlush:
        mem.flush(eff);
        return 40;
      default:
        return 0;
    }
}

/**
 * Pseudo-cycles one macro-op advances: one per delivered uop plus a
 * fraction of memory latency (enough to drive the watchdog at a
 * realistic rate).
 */
constexpr Tick
macroCycles(std::uint64_t delivered, Cycles latency)
{
    return delivered + latency / 4;
}

} // namespace cache_only

/** Simulator configuration. */
struct SimParams
{
    SimMode mode = SimMode::Detailed;
    FrontEndParams frontend;
    MemHierarchyParams mem;
    BackEndParams backend;
    BranchPredParams bpred;
    EnergyParams energy;
    std::uint64_t maxInstructions = 1ull << 40;

    /**
     * The observability context this simulation records into (stats
     * detail, event/lifecycle tracing, log sink, host profiler). Null
     * = the simulation creates and owns a private context inheriting
     * the constructing thread's configuration; non-null = share the
     * caller's context (e.g. DuoSimulation's two halves record one
     * combined trace). The caller keeps ownership. Host-side, so
     * visit() leaves it out.
     */
    ObservabilityContext *obs = nullptr;

    /** f(name, field) once per field. The manifest hash derives from
     *  it; tests/sim/test_manifest.cc fails on a field left out. */
    template <typename F>
    void
    visit(F &&f) const
    {
        f("mode", mode);
        f("frontend", frontend);
        f("mem", mem);
        f("backend", backend);
        f("bpred", bpred);
        f("energy", energy);
        f("maxInstructions", maxInstructions);
    }
};

/** One interval-sampler observation: selected stats at a cycle. */
struct IntervalSample
{
    Tick cycle = 0;
    std::vector<double> values;
};

/** The simulator. */
class Simulation
{
  public:
    Simulation(const Program &prog, const SimParams &params = {});

    /**
     * Co-located construction: share @p shared_mem with other
     * simulations (hardware contexts on one core / socket). The caller
     * keeps ownership of the hierarchy.
     */
    Simulation(const Program &prog, const SimParams &params,
               MemHierarchy *shared_mem);

    ~Simulation();

    // --- wiring (before run) ---------------------------------------------

    /** Use a custom translator (e.g. the CSD); default is native. */
    void setTranslator(Translator *translator);

    /** Convenience: install a CSD and keep the devectorization hook. */
    void setCsd(ContextSensitiveDecoder *csd);

    /** Enable DIFT propagation. */
    void setTaintTracker(TaintTracker *taint);

    /** Drive VPU power gating. */
    void setPowerController(PowerGateController *power);

    /**
     * Toggle the host-side predecoded-flow cache (decode/flow_cache.hh).
     * On by default; CSD_FLOW_CACHE=0 in the environment disables it.
     * Purely a host optimization: simulated timing and statistics are
     * bit-identical either way (tests/sim/test_flow_cache.cc).
     */
    void setFlowCacheEnabled(bool on);
    bool flowCacheEnabled() const { return flowCacheEnabled_; }

    /** Host-side hit/miss accounting for the predecoded-flow cache. */
    const FlowCache &flowCache() const { return flowCache_; }

    /**
     * Toggle the superblock threaded-code tier (sim/fastpath.hh): in
     * cache-only mode, hot straight-line regions of cached flows are
     * compiled into flat pre-resolved uop streams and executed without
     * the per-macro interpreter overhead. On by default;
     * CSD_SUPERBLOCK=0 in the environment disables it. Purely a host
     * optimization: simulated timing and statistics are bit-identical
     * either way (tests/sim/test_superblock.cc). The tier engages only
     * when the flow cache is enabled, no power controller is attached,
     * and tracing is off (run() re-checks per call).
     */
    void setSuperblockEnabled(bool on);
    bool superblockEnabled() const { return superblockEnabled_; }

    /** Region-entry count at which a hot head is compiled (>= 1;
     *  default 16). */
    void setSuperblockThreshold(std::uint32_t threshold);

    /** The superblock tier's host-side counters and block cache. */
    const FastPath &fastPath() const { return *fastpath_; }

    /**
     * Sample the statistics named by @p stat_paths (dotted paths under
     * the "sim" group, e.g. "instructions", "ipc",
     * "frontend.slots_legacy") every @p interval cycles into an
     * in-memory time series. Pass an empty list for the default set
     * {"instructions", "ipc"}. Paths are validated on the first
     * sample; unknown paths are fatal. The series survives restart()
     * so attack harnesses see all invocations on one timeline.
     */
    void sampleEvery(Tick interval,
                     std::vector<std::string> stat_paths = {});

    /** Stat paths captured by the interval sampler. */
    const std::vector<std::string> &sampledStats() const
    {
        return samplePaths_;
    }

    /** The recorded time series (cumulative values at each sample). */
    const std::vector<IntervalSample> &samples() const { return samples_; }

    /** Write the time series as CSV: "cycle,<path>,<path>,..." */
    void writeSamplesCsv(std::ostream &os) const;

    // --- instruction-grain observability -----------------------------------

    /**
     * Enable CPI-stack accounting (detailed mode only). Every cycle
     * from this point on is attributed to exactly one CpiBucket;
     * enable before the first step() so the buckets sum to cycles().
     * Also armed at construction by CSD_CPI_STACK=1.
     */
    CpiStack &enableCpiStack();

    /** The accountant, or null when not enabled. */
    CpiStack *cpiStack() { return cpiStack_.get(); }
    const CpiStack *cpiStack() const { return cpiStack_.get(); }

    /**
     * Enable per-uop lifecycle tracing into a bounded ring (detailed
     * mode only; records export as O3PipeView / Kanata). Also armed at
     * construction by CSD_LIFECYCLE=1 with CSD_LIFECYCLE_CAPACITY and,
     * when CSD_LIFECYCLE_FILE names a path, exported at destruction.
     */
    LifecycleTracer &enableLifecycle(std::size_t capacity = 1 << 16);

    /** The lifecycle tracer, or null when not enabled. */
    LifecycleTracer *lifecycle() { return lifecycle_.get(); }

    // --- execution ---------------------------------------------------------

    /** Execute one macro-op. Returns false once halted. */
    bool step();

    /** Execute up to @p max_instructions; returns number executed. */
    std::uint64_t run(std::uint64_t max_instructions);

    /** Run until the program halts. */
    void runToHalt();

    /**
     * Re-arm the program for another run (attack harnesses invoke the
     * victim thousands of times): resets PC/halted, keeps all cache,
     * memory, predictor, translator, and statistic state.
     */
    void restart();

    bool halted() const { return state_.halted; }

    // --- results -----------------------------------------------------------

    Tick cycles() const { return cycles_; }
    std::uint64_t instructions() const { return instructions_.value(); }
    std::uint64_t uopsExecuted() const;

    /**
     * Dynamic uops processed in any fidelity mode (cache-only runs
     * never drive the back end, so uopsExecuted() stays 0 there).
     * Host-side bookkeeping, not part of the stat tree.
     */
    std::uint64_t uopsSimulated() const { return uopsSimulated_; }
    std::uint64_t slotsDelivered() const { return slotsDelivered_.value(); }
    double ipc() const;

    /** Energy consumed so far, with static terms up to cycles(). */
    EnergyBreakdown energy() const;

    ArchState &state() { return state_; }
    MemHierarchy &mem() { return *mem_; }
    FrontEnd &frontend() { return *frontend_; }
    BackEnd &backend() { return *backend_; }
    BranchPredictor &bpred() { return *bpred_; }
    const Program &program() const { return prog_; }
    const EnergyModel &energyModel() const { return energyModel_; }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** The observability context this simulation records into. */
    ObservabilityContext &obs() const { return *obs_; }

    /**
     * Hierarchical JSON dump of the whole stat tree, led by a
     * "manifest" member (obs/manifest.hh) recording the configuration
     * hash, build/host provenance, and host wall-time phases of this
     * run.
     */
    void dumpStatsJson(std::ostream &os) const;

    /** The run-provenance record emitted by dumpStatsJson(). */
    obs::Manifest buildManifest() const;

  private:
    /**
     * Run @p fn with its host time attributed to @p phase when the
     * profiler is on. The disabled branch calls @p fn with no Scope in
     * scope at all: keeping the clock reads out of the hot loop's
     * codegen is worth the duplicated call — an unconditional
     * HostProfiler::Scope costs double-digit percent simulation
     * throughput even when it never reads the clock.
     */
    template <typename Fn>
    decltype(auto) profiled(HostPhase phase, Fn &&fn)
    {
        HostProfiler &prof = obs_->profiler();
        if (prof.enabled()) [[unlikely]] {
            HostProfiler::Scope scope(prof, phase);
            return fn();
        }
        return fn();
    }

    void maybeSample();
    const UopFlow &translatedFlow(const MacroOp &op);
    void stepDetailed(const MacroOp &op, const UopFlow &flow,
                      const FlowResult &result);
    void stepCacheOnly(const MacroOp &op, const UopFlow &flow,
                       const FlowResult &result);

    const Program &prog_;
    SimParams params_;

    // Observability context, constructed (and bound to the building
    // thread) before any component so construction-time trace/log
    // events already land in the right buffers.
    std::unique_ptr<ObservabilityContext> ownedObs_;  //!< null if shared
    ObservabilityContext *obs_;

    ArchState state_;
    FunctionalExecutor executor_;
    std::unique_ptr<MemHierarchy> ownedMem_;
    MemHierarchy *mem_;
    std::unique_ptr<FrontEnd> frontend_;
    std::unique_ptr<BackEnd> backend_;
    std::unique_ptr<BranchPredictor> bpred_;
    NativeTranslator nativeTranslator_;
    Translator *translator_;
    ContextSensitiveDecoder *csd_ = nullptr;
    TaintTracker *taint_ = nullptr;
    PowerGateController *power_ = nullptr;
    EnergyModel energyModel_;

    Tick cycles_ = 0;
    Addr lastFetchBlock_ = invalidAddr;
    unsigned curCtx_ = 0;
    std::uint64_t uopsSimulated_ = 0;

    // Predecoded-flow cache (host optimization, see translatedFlow()).
    FlowCache flowCache_;
    bool flowCacheEnabled_ = true;

    // Superblock tier (host optimization, see run()). FastPath is a
    // friend: it replicates step()'s cache-only bookkeeping in place.
    friend class FastPath;
    std::unique_ptr<FastPath> fastpath_;
    bool superblockEnabled_ = true;
    UopFlow scratchFlow_;  //!< holds the flow on the uncached path
    FlowResult scratchResult_;  //!< reused across steps (executeInto)

    // Macro-fusion pairing state (previous committed macro-op; points
    // into prog_.code(), null right after restart()).
    const MacroOp *prevMacro_ = nullptr;
    Tick lastSlotCycle_ = 0;

    // IDQ backpressure ring (fused slots).
    std::vector<Tick> idqRing_;
    std::size_t idqIdx_ = 0;
    std::uint64_t idqCount_ = 0;

    // Dynamic energy accumulators (nJ).
    double coreDynamic_ = 0;
    double vpuDynamic_ = 0;
    double frontendDynamic_ = 0;

    // Instruction-grain observability (both null => zero per-uop cost
    // beyond two pointer tests).
    std::unique_ptr<CpiStack> cpiStack_;
    std::unique_ptr<LifecycleTracer> lifecycle_;
    std::string lifecycleExportPath_;
    std::uint64_t lifecycleFlushToken_ = 0;  //!< context flush-hook handle
    std::string channelExportPath_;  //!< set-heatmap base ("%c" expanded)
    std::uint64_t channelFlushToken_ = 0;
    std::uint64_t feL1iSeen_ = 0;     //!< fetch-stall counter watermark
    std::uint64_t feDecodeSeen_ = 0;  //!< decode-bw counter watermark

    // Interval sampler state. The series intentionally survives
    // restart(): attack harnesses re-arm thousands of times and want
    // one continuous timeline.
    Tick sampleInterval_ = 0;
    Tick nextSampleAt_ = 0;
    std::vector<std::string> samplePaths_;
    std::vector<IntervalSample> samples_;

    StatGroup stats_;
    Counter instructions_;
    Counter slotsDelivered_;
    Counter decoyUopsExecuted_;
    Counter devectUopsExecuted_;
    Counter macroFusedPairs_;
    Counter vpuStalls_;
    Distribution flowLen_{0, 32, 16};
    Formula ipc_;
    Formula uopsPerInstr_;
    Formula l1dMpki_;
    Formula decoyFrac_;
};

} // namespace csd

#endif // CSD_SIM_SIMULATION_HH
