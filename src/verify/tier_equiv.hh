/**
 * @file
 * Static tier prover: the superblock exit protocol, checked per block.
 *
 * The superblock tier (decode/superblock.hh, sim/fastpath.hh) shares
 * its uop semantics with the interpreter by construction (one handler
 * table in uop/uop.hh, one expansion in UopFlow::forEachExpanded, one
 * cache-only timing model), so there is no second definition left to
 * compare. What the tier still owns is the exit protocol: a block may
 * be left before any macro, and the interpreter must then resume from
 * a state it could have produced itself. This pass proves, per
 * compiled block and with no simulation:
 *
 *  - tier.partial-flush — the macros' uop ranges partition the stream,
 *    so every exit point is a clean whole-macro prefix; consecutive
 *    macros follow interpreter (fall-through) order; the recorded
 *    resume PCs are the ops' nextPc; unconditional transfers end the
 *    block; and no Halt is admitted (the interpreter owns termination);
 *  - tier.accounting-skew — every macro's flow and context are the
 *    flow-cache entry the interpreter would fetch under the block's
 *    epoch, so an exit hands back a state the interpreter's own cache
 *    would reproduce.
 *
 * Dynamic bit-identity (tests/sim/test_superblock.cc and the
 * generated-program differential test) covers the rest.
 */

#ifndef CSD_VERIFY_TIER_EQUIV_HH
#define CSD_VERIFY_TIER_EQUIV_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "decode/flow_cache.hh"
#include "decode/params.hh"
#include "decode/superblock.hh"
#include "decode/translator.hh"
#include "isa/program.hh"
#include "verify/finding.hh"

namespace csd
{

/** Summary of one offline tier sweep. */
struct TierAudit
{
    std::size_t heads = 0;   //!< region heads attempted
    std::size_t blocks = 0;  //!< superblocks compiled and proved
    std::size_t macros = 0;  //!< macro-ops covered by those blocks
    std::size_t uops = 0;    //!< stream uops checked
};

/**
 * Prove one compiled @p block's exit protocol against @p prog and the
 * flows cached in @p fc under the block's epoch and @p translator's
 * stable contexts. Appends tier.* findings to @p report.
 */
void checkSuperblock(const Superblock &block, const Program &prog,
                     const FlowCache &fc, const Translator &translator,
                     VerifyReport &report);

/**
 * Fill @p fc offline with every stable, cacheable translation of
 * @p prog under @p translator's current state, running the same
 * decode-time passes (fusion config, SP tracking) the simulator
 * applies before caching. Returns the translation epoch the entries
 * were recorded under.
 */
std::uint64_t populateFlowCache(const Program &prog,
                                Translator &translator, FlowCache &fc,
                                const FrontEndParams &frontend = {});

/**
 * Statically enumerable region heads of @p prog: the entry point,
 * every direct branch/call target, and the fall-through successor of
 * every region-ending transfer (return sites, post-jump joins).
 * Indirect-jump targets are not statically enumerable; at run time
 * such a head simply compiles on first hot entry, and its block is
 * proved by the same per-block checks, so the sweep's coverage gap is
 * heads only, never check families. Sorted, deduplicated, and
 * restricted to PCs where an instruction starts.
 */
std::vector<Addr> regionHeads(const Program &prog);

/**
 * The offline driver: populate a flow cache for @p prog under
 * @p translator's current trigger state (default front-end passes),
 * compile a superblock at every statically known region head (up to
 * 4096) with SuperblockBuilder's default caps, and run checkSuperblock
 * over each. This is the sweep csd-lint --tiers runs per preset and
 * per translator configuration.
 */
TierAudit auditProgramTiers(const Program &prog, Translator &translator,
                            VerifyReport &report);

} // namespace csd

#endif // CSD_VERIFY_TIER_EQUIV_HH
