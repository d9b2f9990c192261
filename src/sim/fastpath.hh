/**
 * @file
 * Superblock fast path: threaded-code execution tier for cache-only
 * simulation.
 *
 * The interpreter (Simulation::step) pays per macro-op for work that is
 * invariant across the billions of dynamic instances a cache-only
 * attack harness executes: translator stability checks, flow-cache
 * probes, executor dispatch, and per-uop accounting decisions. This
 * tier detects hot region heads via execution counters hung off the
 * flow-cache slots, compiles straight-line runs of cached flows into
 * superblocks (decode/superblock.hh), and executes them as flat
 * threaded-code streams — computed-goto dispatch where the compiler
 * supports it, a dense switch otherwise. It defines no semantics of
 * its own: each uop runs the FunctionalExecutor handler the
 * interpreter runs, and each macro takes the interpreter's cache-only
 * timing steps (cache_only::fetchMacro, probeUop, macroCycles).
 *
 * Exit protocol: before every macro a block repeats the interpreter's
 * per-step translator protocol — watchdog tick, the flow-cache key
 * (the macro's cached decode context against the live
 * stableContext(), for macros whose context can move, plus the epoch
 * for translators that have one), stability probe — and it leaves
 * only at a macro boundary: after a taken branch or the last macro
 * (End/Branch, which chain into the next block), or before a macro on
 * a context change (which also drops the block), stability loss or
 * budget exhaustion (which hand control back to the interpreter).
 * Either way a whole-macro prefix has retired with all architectural
 * and accounting state exactly as the interpreter would have left it.
 * Tier on or off, stats dumps and sidecars are bit-identical
 * (tests/sim/test_superblock.cc).
 *
 * All counters here are host-side plain integers outside the stat
 * tree, like the flow cache's, so they never perturb simulated output.
 */

#ifndef CSD_SIM_FASTPATH_HH
#define CSD_SIM_FASTPATH_HH

#include <cstdint>

#include "cpu/executor.hh"
#include "decode/superblock.hh"

namespace csd
{

class ContextSensitiveDecoder;
class Simulation;

/** Superblock build + threaded-code execution engine (one per sim). */
class FastPath
{
  public:
    /** Host-side accounting (never part of the simulated stat tree). */
    struct Counters
    {
        std::uint64_t built = 0;        //!< superblocks compiled
        std::uint64_t buildAborts = 0;  //!< builds under minMacros
        std::uint64_t invalidated = 0;  //!< blocks dropped (stale context)
        std::uint64_t entries = 0;      //!< block executions started
        std::uint64_t blockMacros = 0;  //!< static macro-ops compiled
        std::uint64_t blockUops = 0;    //!< static uops compiled
        std::uint64_t uopsRetired = 0;  //!< dynamic uops retired here
        std::uint64_t exits[numSbExits] = {};  //!< by SbExit reason
    };

    explicit FastPath(Simulation &sim) : sim_(sim) {}

    /** Size the block cache for a program; drops compiled blocks. */
    void reset(std::size_t slots) { cache_.reset(slots); }

    /**
     * Drop every compiled block. Required whenever the flow cache is
     * cleared: superblocks hold pointers into its entries, and their
     * guards compare contexts, not entry liveness — a cleared flow
     * cache under unchanged contexts would otherwise leave enterable
     * blocks referencing destroyed flows.
     */
    void clear() { cache_.clear(); }

    /** Region-entry count at which a head is compiled (>= 1). */
    void setThreshold(std::uint32_t threshold) { threshold_ = threshold; }
    std::uint32_t threshold() const { return threshold_; }

    const Counters &counters() const { return counters_; }
    const SuperblockCache &cache() const { return cache_; }

    /**
     * Execute superblocks starting at the current PC until a region
     * exit that the interpreter must handle, or until @p budget
     * instructions committed. Returns the number committed. The caller
     * (Simulation::run) guarantees cache-only mode with the flow cache
     * enabled and no power controller or tracing armed.
     */
    std::uint64_t run(std::uint64_t budget);

  private:
    // Templated on the concrete translator type: NativeTranslator's
    // protocol hooks fold to nothing, the CSD's inline bodies
    // (csd/csd.hh) are absorbed into the macro loop, and any other
    // Translator subclass falls back to virtual dispatch.
    template <class Tr, bool Taint>
    std::uint64_t runImpl(Tr &tr, std::uint64_t budget);

    template <class Tr, bool Taint>
    SbExit execBlock(Tr &tr, const Superblock &block, std::uint64_t budget,
                     std::uint64_t &executed);

    Simulation &sim_;
    SuperblockCache cache_;
    SuperblockLimits limits_;
    std::uint32_t threshold_ = 16;
    Counters counters_;
    /** Branch outcome of the macro in flight, plus the DynUop buffer
     *  DIFT replays (reused across macros). */
    FlowResult scratch_;

    // Memoized translator-kind resolution (run() is hot; see run()).
    Translator *resolvedFor_ = nullptr;
    ContextSensitiveDecoder *resolvedCsd_ = nullptr;
};

} // namespace csd

#endif // CSD_SIM_FASTPATH_HH
