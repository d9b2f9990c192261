/**
 * @file
 * Translator interface: the hook point for context-sensitive decoding.
 *
 * The front end asks its Translator for the micro-op flow of each
 * macro-op in program order. The native translator is the static
 * table-driven translation; the context-sensitive decoder (csd/)
 * implements the same interface and swaps translations based on the
 * current execution context.
 */

#ifndef CSD_DECODE_TRANSLATOR_HH
#define CSD_DECODE_TRANSLATOR_HH

#include <cstdint>

#include "common/types.hh"
#include "isa/macroop.hh"
#include "uop/flow.hh"
#include "uop/translate.hh"

namespace csd
{

/** Produces micro-op flows for macro-ops, possibly context-dependent. */
class Translator
{
  public:
    virtual ~Translator() = default;

    /** Translate @p op in program order. May advance internal state. */
    virtual UopFlow translate(const MacroOp &op) = 0;

    /**
     * Identifier of the translation context used by the most recent
     * translate() call, for the micro-op cache's context tag bits. The
     * native translation is context 0.
     */
    virtual unsigned contextId() const { return 0; }

    /** Advance time-based triggers (watchdog timers). */
    virtual void tick(Tick now) { (void)now; }

    // --- host-side flow-cache protocol -----------------------------------
    //
    // The simulation may memoize translate() results per static
    // instruction. The hooks below make that memoization
    // architecturally faithful. A memoized flow is keyed on its decode
    // context, stableContext(op) — the host-side analogue of the
    // micro-op cache's context tag bits — so a translator whose stable
    // flows depend on nothing else never flushes: after a context
    // switch the other context's entries simply miss. The stability
    // predicate vetoes memoization for ops whose translation depends
    // on mutable per-instance state, the epoch lets a translator with
    // further hidden inputs invalidate in bulk, and the replay hook
    // reproduces translate()'s accounting so stats stay bit-identical
    // whether a flow was cached or freshly translated.

    /**
     * Bulk invalidation for translators whose stable flows depend on
     * state stableContext() does not capture: bump it whenever that
     * state changes, and every flow cached (and superblock compiled)
     * under an older epoch is re-translated. The native translator
     * and the context-sensitive decoder key everything on the context
     * and keep the default 0.
     */
    virtual std::uint64_t translationEpoch() const { return 0; }

    /**
     * True iff translating @p op right now is a pure function of
     * (op, stableContext(op), epoch): no per-instance randomness
     * (timing noise), no translation-time side effects beyond plain
     * accounting (stealth decoy-range consumption), and no mutable
     * rule lookup (MCU mode). Unstable ops always go through the real
     * translate().
     */
    virtual bool translationStable(const MacroOp &op) const
    {
        (void)op;
        return true;
    }

    /**
     * The contextId() a stable translation of @p op would report right
     * now: the flow cache's per-entry key. An entry filled under
     * another context counts as a ctx invalidation and is
     * re-translated, and the superblock tier leaves a block before a
     * macro whose context moved since the block was compiled. Only
     * meaningful when translationStable(op) holds.
     */
    virtual unsigned stableContext(const MacroOp &op) const
    {
        (void)op;
        return 0;
    }

    /**
     * True iff stableContext(@p op) can never change. The superblock
     * tier then compiles @p op without a per-macro context guard. The
     * default (false) keeps the guard on every macro.
     */
    virtual bool stableContextFixed(const MacroOp &op) const
    {
        (void)op;
        return false;
    }

    /**
     * Replay the accounting translate() would have performed for a
     * cache hit that returned @p flow translated under context @p ctx.
     * After this call all translator-side stats and the value of
     * contextId() must match what a real translate(op) would have left.
     */
    virtual void
    noteCachedTranslation(const MacroOp &op, const UopFlow &flow,
                          unsigned ctx)
    {
        (void)op;
        (void)flow;
        (void)ctx;
    }
};

/** The default static translation (contexts never change). Final so
 *  the superblock fast path's typed dispatch (sim/fastpath.cc) folds
 *  the no-op protocol hooks away entirely. */
class NativeTranslator final : public Translator
{
  public:
    UopFlow translate(const MacroOp &op) override
    {
        return translateNative(op);
    }
};

} // namespace csd

#endif // CSD_DECODE_TRANSLATOR_HH
