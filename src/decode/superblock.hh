/**
 * @file
 * Superblocks: flat, pre-resolved threaded-code streams for the
 * cache-only fast path (sim/fastpath.hh).
 *
 * A superblock stitches a straight-line run of *cached* flows —
 * entries of the predecoded-flow cache (flow_cache.hh) that are valid
 * under the current translator epoch — into one contiguous uop stream.
 * Everything the interpreter re-derives per macro-op is resolved once
 * at build time: the handler group each uop dispatches to (read from
 * the uop.hh handler table the interpreter also switches on), its
 * dynamic energy, its VPU residency, and the per-macro counts
 * (delivered and dynamic uops). Micro-loops are unrolled into the
 * stream in UopFlow::forEachExpanded order, so execution is a single
 * linear walk with one indirect jump per uop.
 *
 * Invalidation reuses the translator-epoch protocol verbatim: a
 * superblock records the epoch it was built under, and the fast path
 * compares that against the live epoch at entry (and, because the
 * watchdog can fire mid-block, before every macro-op). A mismatch
 * drops the block back to the interpreter, exactly as a stale flow
 * cache entry drops to the translator.
 *
 * Like the flow cache, this is purely a host optimization: it models
 * no hardware and must never change simulated timing or statistics
 * (tests/sim/test_superblock.cc pins bit-identical stat dumps with the
 * tier on and off). All counters are host-side plain integers outside
 * the stat tree.
 */

#ifndef CSD_DECODE_SUPERBLOCK_HH
#define CSD_DECODE_SUPERBLOCK_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "decode/flow_cache.hh"
#include "decode/translator.hh"
#include "isa/program.hh"
#include "power/energy.hh"
#include "uop/uop.hh"

namespace csd
{

/** Why the fast path left a superblock. */
enum class SbExit : std::uint8_t
{
    End,        //!< ran off the end of the stream (fall-through)
    Branch,     //!< control left the straight-line path mid-block
    EpochBump,  //!< translator epoch moved mid-block (e.g. watchdog)
    Unstable,   //!< translationStable() went false (taint/decoy state)
    Budget,     //!< run()/maxInstructions budget exhausted mid-block
    NumExits,
};

constexpr unsigned numSbExits = static_cast<unsigned>(SbExit::NumExits);

/**
 * Printable exit-reason name. These strings are load-bearing: the
 * throughput bench emits one sidecar counter per reason under the key
 * "superblock.exit_<name>" (bench_sim_throughput.cc), and
 * tests/sim/test_superblock.cc pins the exact spellings. The
 * definition's switch is exhaustive with no default, so adding an
 * SbExit enumerator without naming it breaks the build there.
 */
const char *sbExitName(SbExit exit);

/** One pre-resolved uop of the threaded stream. */
struct SbOp
{
    Uop uop;                 //!< loop-expanded copy of the cached uop
    double energy = 0;       //!< EnergyModel::uopEnergy, precomputed
    UopHandler handler = UopHandler::Nop;  //!< uopHandler(), precomputed
    bool vpu = false;        //!< onVpu(), precomputed
    bool counted = false;    //!< !eliminated: slots/energy/probe apply
};

/** Per-macro-op metadata of a superblock. */
struct SbMacro
{
    const MacroOp *op = nullptr;   //!< points into Program::code()
    const UopFlow *flow = nullptr; //!< the flow-cache entry's flow
    unsigned ctx = 0;              //!< context the flow was cached under
    Addr fallThrough = invalidAddr;  //!< nextPc() when no branch taken
    std::uint32_t uopBegin = 0;    //!< range in Superblock::uops
    std::uint32_t uopEnd = 0;
    std::uint32_t dynCount = 0;    //!< flow->expandedCount()
    std::uint64_t delivered = 0;   //!< deliveredUops(*flow)
};

/** A compiled straight-line region. */
struct Superblock
{
    Addr entryPc = invalidAddr;
    std::uint64_t epoch = 0;       //!< translator epoch at build time
    std::vector<SbMacro> macros;
    std::vector<SbOp> uops;        //!< flat threaded-code stream
};

/** Build caps (defense against pathological straight-line programs). */
struct SuperblockLimits
{
    std::uint32_t maxMacros = 512;
    std::uint32_t maxUops = 8192;
    std::uint32_t minMacros = 2;   //!< don't compile trivial regions
};

/**
 * Compiles straight-line regions into superblocks. One builder wraps
 * the immutable build world — program, flow cache, translator, energy
 * model, caps — so a caller (the fast path at a hot head, the static
 * tier prover sweeping every head offline) compiles any number of
 * regions against one consistent snapshot.
 *
 * build(entry_pc) walks from @p entry_pc following fall-through edges
 * (conditional branches stay mid-block and exit dynamically when
 * taken), ends inclusively at an unconditional control transfer, and
 * stops at the first op that is uncached, unstable, or a Halt (the
 * interpreter owns program termination). Returns nullptr when fewer
 * than limits.minMacros ops qualify.
 */
class SuperblockBuilder
{
  public:
    SuperblockBuilder(const Program &prog, const FlowCache &fc,
                      const Translator &translator,
                      const EnergyModel &energy,
                      const SuperblockLimits &limits = {})
        : prog_(prog), fc_(fc), translator_(translator), energy_(energy),
          limits_(limits)
    {}

    /** Compile the region at @p entry_pc; nullptr if not compilable. */
    std::unique_ptr<Superblock> build(Addr entry_pc) const;

    const SuperblockLimits &limits() const { return limits_; }

  private:
    const Program &prog_;
    const FlowCache &fc_;
    const Translator &translator_;
    const EnergyModel &energy_;
    SuperblockLimits limits_;
};

/**
 * Slot-indexed store of compiled superblocks, keyed like the flow
 * cache by the entry op's position in Program::code(). Stale blocks
 * are detected by the epoch compare at entry and dropped lazily.
 */
class SuperblockCache
{
  public:
    /** Size for a program's static instruction count; drops blocks. */
    void
    reset(std::size_t slot_count)
    {
        blocks_.clear();
        blocks_.resize(slot_count);
        count_ = 0;
    }

    std::size_t slots() const { return blocks_.size(); }

    Superblock *at(std::size_t slot) { return blocks_[slot].get(); }
    const Superblock *at(std::size_t slot) const
    {
        return blocks_[slot].get();
    }

    void
    install(std::size_t slot, std::unique_ptr<Superblock> block)
    {
        count_ += blocks_[slot] ? 0 : 1;
        blocks_[slot] = std::move(block);
    }

    void
    invalidate(std::size_t slot)
    {
        count_ -= blocks_[slot] ? 1 : 0;
        blocks_[slot].reset();
    }

    /** Drop every compiled block; keeps the sizing. */
    void
    clear()
    {
        for (std::unique_ptr<Superblock> &block : blocks_)
            block.reset();
        count_ = 0;
    }

    /** Number of live superblocks. */
    std::size_t size() const { return count_; }

  private:
    std::vector<std::unique_ptr<Superblock>> blocks_;
    std::size_t count_ = 0;
};

} // namespace csd

#endif // CSD_DECODE_SUPERBLOCK_HH
