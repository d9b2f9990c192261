#include "sim/fastpath.hh"

#include <type_traits>

#include "common/stats.hh"
#include "csd/csd.hh"
#include "sim/simulation.hh"

// Computed-goto (labels-as-values) dispatch where available; the
// portable build falls back to a dense switch over UopHandler.
#if defined(__GNUC__) || defined(__clang__)
#define CSD_SB_COMPUTED_GOTO 1
#else
#define CSD_SB_COMPUTED_GOTO 0
#endif

namespace csd
{

namespace
{

// Flow-cache key parts a concrete translator type leaves at the
// Translator default (an epoch and a context that are always 0), so
// execBlock drops their per-macro checks at compile time.
// &Tr::hook names Translator's member unless Tr declares its own.
template <class Tr>
constexpr bool fixedEpoch =
    !std::is_same_v<Tr, Translator> &&
    std::is_same_v<decltype(&Tr::translationEpoch),
                   std::uint64_t (Translator::*)() const>;

template <class Tr>
constexpr bool fixedContext =
    !std::is_same_v<Tr, Translator> &&
    std::is_same_v<decltype(&Tr::stableContext),
                   unsigned (Translator::*)(const MacroOp &) const>;

static_assert(fixedEpoch<NativeTranslator> &&
              fixedContext<NativeTranslator> &&
              fixedEpoch<ContextSensitiveDecoder> &&
              !fixedContext<ContextSensitiveDecoder>);

} // namespace

std::uint64_t
FastPath::run(std::uint64_t budget)
{
    // Resolve the per-run-invariant branches once: the concrete
    // translator type (native hooks fold away; the CSD's inline
    // hooks devirtualize) and DIFT presence select a specialization,
    // so the per-macro loop carries no dead virtual calls. run() is
    // re-entered at every region head, so the dynamic_cast result is
    // memoized until the simulation swaps translators.
    Translator *const tr = sim_.translator_;
    if (tr != resolvedFor_) {
        resolvedFor_ = tr;
        resolvedCsd_ = dynamic_cast<ContextSensitiveDecoder *>(tr);
    }
    const bool taint = sim_.taint_ != nullptr;
    if (tr == &sim_.nativeTranslator_) {
        NativeTranslator &native = sim_.nativeTranslator_;
        return taint ? runImpl<NativeTranslator, true>(native, budget)
                     : runImpl<NativeTranslator, false>(native, budget);
    }
    if (ContextSensitiveDecoder *csd = resolvedCsd_) {
        return taint
            ? runImpl<ContextSensitiveDecoder, true>(*csd, budget)
            : runImpl<ContextSensitiveDecoder, false>(*csd, budget);
    }
    return taint ? runImpl<Translator, true>(*tr, budget)
                 : runImpl<Translator, false>(*tr, budget);
}

template <class Tr, bool Taint>
std::uint64_t
FastPath::runImpl(Tr &tr, std::uint64_t budget)
{
    // Mirror step()'s maxInstructions gate.
    const std::uint64_t max = sim_.params_.maxInstructions;
    const std::uint64_t done = sim_.instructions_.value();
    if (done >= max)
        return 0;
    budget = std::min(budget, max - done);

    const MacroOp *const code_base = sim_.prog_.code().data();
    std::uint64_t executed = 0;

    while (executed < budget && !sim_.state_.halted) {
        const MacroOp *op = sim_.prog_.at(sim_.state_.pc);
        if (!op)
            break;  // the interpreter owns the fetch-fault fatal
        const auto slot = static_cast<std::size_t>(op - code_base);
        if (slot >= cache_.slots())
            break;
        if (op->opcode == MacroOpcode::Halt)
            break;  // Halt commits via the interpreter, uncounted

        // Fire any due watchdog before consulting, exactly where the
        // interpreter would (step() ticks before translating). The
        // matching per-macro tick in execBlock at the same cycle is a
        // no-op: the watchdog disarms when it fires.
        tr.tick(sim_.cycles_);

        Superblock *block = cache_.at(slot);
        if (block && block->epoch != tr.translationEpoch()) {
            cache_.invalidate(slot);
            ++counters_.invalidated;
            block = nullptr;
        }
        if (!block) {
            if (sim_.flowCache_.bumpHeat(slot) < threshold_)
                break;
            std::unique_ptr<Superblock> built =
                SuperblockBuilder(sim_.prog_, sim_.flowCache_,
                                  *sim_.translator_, sim_.energyModel_,
                                  limits_)
                    .build(sim_.state_.pc);
            if (!built) {
                // Nothing compilable here (uncached/unstable region);
                // back off so the next visits don't retry immediately.
                ++counters_.buildAborts;
                sim_.flowCache_.coolSlot(slot);
                break;
            }
            ++counters_.built;
            counters_.blockMacros += built->macros.size();
            counters_.blockUops += built->uops.size();
            cache_.install(slot, std::move(built));
            block = cache_.at(slot);
        }

        ++counters_.entries;
        const SbExit exit =
            execBlock<Tr, Taint>(tr, *block, budget, executed);
        ++counters_.exits[static_cast<unsigned>(exit)];
        if (exit == SbExit::ContextChange) {
            // Compiled under a context that has since moved: drop it.
            // It recompiles from the re-translated flows once they are
            // cached (its head stays hot).
            cache_.invalidate(slot);
            ++counters_.invalidated;
        }
        if (exit != SbExit::End && exit != SbExit::Branch)
            break;  // context/stability/budget: the interpreter takes over
        // End or Branch landed on a new region head: chain into its
        // block (or compile it) without surfacing to the interpreter.
    }
    return executed;
}

template <class Tr, bool Taint>
SbExit
FastPath::execBlock(Tr &tr, const Superblock &block, std::uint64_t budget,
                    std::uint64_t &executed)
{
    ArchState &state = sim_.state_;
    MemHierarchy &mem = *sim_.mem_;
    FunctionalExecutor &exec = sim_.executor_;

    // The per-macro bookkeeping accumulates in locals (registers) and
    // flushes to the simulation members at every exit, so the loop
    // carries no read-modify-write of member counters per macro. The
    // final member values are identical to per-macro updates — these
    // are all integer sums. Energy scalars are NOT localized: double
    // addition is order-sensitive and must stay per-uop (see
    // CSD_SB_HANDLER).
    const bool detail = statsDetailEnabled();
    const bool sampling = sim_.sampleInterval_ != 0;
    Tick cycles = sim_.cycles_;
    Addr last_fetch = sim_.lastFetchBlock_;
    std::uint64_t d_instr = 0;
    std::uint64_t d_uops = 0;
    std::uint64_t d_hits = 0;
    std::uint64_t d_slots = 0;
    std::uint64_t d_decoys = 0;

    const auto flush = [&] {
        sim_.cycles_ = cycles;
        sim_.lastFetchBlock_ = last_fetch;
        sim_.instructions_ += d_instr;
        sim_.uopsSimulated_ += d_uops;
        sim_.slotsDelivered_ += d_slots;
        sim_.decoyUopsExecuted_ += d_decoys;
        sim_.flowCache_.hits += d_hits;
        counters_.uopsRetired += d_uops;
        d_instr = d_uops = d_hits = d_slots = d_decoys = 0;
    };

    for (const SbMacro &m : block.macros) {
        if (executed >= budget) {
            flush();
            return SbExit::Budget;
        }

        // The interpreter's per-step translator protocol, in order:
        // tick (watchdog), the flow-cache key (epoch, then the
        // context of macros whose context can move), per-op
        // stability. Any mid-block trigger change surfaces here at the
        // macro boundary and hands the rest of the region to the
        // interpreter. For the native translator every check folds
        // away.
        tr.tick(cycles);
        if constexpr (!fixedEpoch<Tr>) {
            if (tr.translationEpoch() != block.epoch) {
                flush();
                return SbExit::ContextChange;
            }
        }
        if constexpr (!fixedContext<Tr>) {
            if (m.ctxGuard && tr.stableContext(*m.op) != m.ctx) {
                flush();
                return SbExit::ContextChange;
            }
        }
        if (!tr.translationStable(*m.op)) {
            flush();
            return SbExit::Unstable;
        }

        state.cycleHint = cycles;
        // The interpreted step would probe the flow cache and hit.
        ++d_hits;
        tr.noteCachedTranslation(*m.op, *m.flow, m.ctx);
        sim_.curCtx_ = m.ctx;

        Cycles latency = cache_only::fetchMacro(mem, *m.op, last_fetch);

        FlowResult &res = scratch_;
        res.nextPc = m.fallThrough;
        res.tookBranch = false;
        if constexpr (Taint) {
            res.dynUops.clear();
            res.dynUops.reserve(m.dynCount);
        }

        const SbOp *s = block.uops.data() + m.uopBegin;
        const SbOp *const end = block.uops.data() + m.uopEnd;
        DynUop dyn;

// One label per UopHandler group, generated from CSD_UOP_HANDLERS: run
// the interpreter's handler, then retire the uop as stepCacheOnly does
// for delivered (non-eliminated) uops, plus the DynUop record DIFT
// replays. The handler is a constant at each label, so the probe's
// switch folds away. Energy adds stay per-uop in expansion order —
// double addition is not associative, and the equivalence tests
// compare energy bit-exactly.
#define CSD_SB_HANDLER(name)                                              \
    CSD_SB_LABEL(name):                                                   \
        exec.exec##name(s->uop, dyn, res);                                \
        if (s->counted) {                                                 \
            latency += cache_only::probeUop(mem, s->uop,                  \
                                            UopHandler::name,             \
                                            dyn.effAddr);                 \
            ++d_slots;                                                    \
            if (s->uop.decoy)                                             \
                ++d_decoys;                                               \
            if (s->vpu)                                                   \
                sim_.vpuDynamic_ += s->energy;                            \
            else                                                          \
                sim_.coreDynamic_ += s->energy;                           \
        }                                                                 \
        if constexpr (Taint)                                              \
            res.dynUops.push_back(dyn);                                   \
        CSD_SB_NEXT();

#if CSD_SB_COMPUTED_GOTO
        static const void *const dispatch[] = {
#define CSD_SB_TARGET(name) &&h_##name,
            CSD_UOP_HANDLERS(CSD_SB_TARGET)
#undef CSD_SB_TARGET
        };
        static_assert(sizeof(dispatch) / sizeof(dispatch[0]) ==
                      static_cast<std::size_t>(UopHandler::NumHandlers));

#define CSD_SB_LABEL(name) h_##name
#define CSD_SB_NEXT()                                                     \
    do {                                                                  \
        if (++s == end)                                                   \
            goto uops_done;                                               \
        dyn = DynUop{&s->uop};                                            \
        goto *dispatch[static_cast<unsigned>(s->handler)];                \
    } while (0)

        if (s == end)
            goto uops_done;
        dyn = DynUop{&s->uop};
        goto *dispatch[static_cast<unsigned>(s->handler)];
        CSD_UOP_HANDLERS(CSD_SB_HANDLER)
uops_done:;
#else
#define CSD_SB_LABEL(name) case UopHandler::name
#define CSD_SB_NEXT() break
        for (; s != end; ++s) {
            dyn = DynUop{&s->uop};
            switch (s->handler) {
                CSD_UOP_HANDLERS(CSD_SB_HANDLER)
              case UopHandler::NumHandlers:
                break;
            }
        }
#endif

#undef CSD_SB_HANDLER
#undef CSD_SB_LABEL
#undef CSD_SB_NEXT

        const Addr next_pc = res.nextPc;
        state.pc = next_pc;
        if constexpr (Taint)
            sim_.taint_->propagate(*m.flow, res);

        // stepCacheOnly's pseudo-cycle advance + step()'s commit
        // bookkeeping, with the counts resolved at build time.
        cycles += cache_only::macroCycles(m.delivered, latency);
        ++d_instr;
        d_uops += m.dynCount;
        if (detail)
            sim_.flowLen_.sample(static_cast<double>(m.dynCount));
        sim_.prevMacro_ = m.op;
        ++executed;
        if (sampling) {
            // The interval sampler reads the member counters, so they
            // must be current at every potential sample point.
            flush();
            if (sim_.cycles_ >= sim_.nextSampleAt_)
                sim_.maybeSample();
        }

        if (next_pc != m.fallThrough) {
            flush();
            return SbExit::Branch;
        }
    }
    flush();
    return SbExit::End;
}

} // namespace csd
