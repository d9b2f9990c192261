#include "verify/tier_equiv.hh"

#include <algorithm>
#include <sstream>
#include <string>

#include "decode/fusion.hh"
#include "power/energy.hh"

namespace csd
{

namespace
{

/** Unconditional control transfer = region terminator (must be last). */
bool
uncondTransfer(MacroOpcode op)
{
    return op == MacroOpcode::Jmp || op == MacroOpcode::JmpInd ||
           op == MacroOpcode::Call || op == MacroOpcode::Ret;
}

std::string
hexPc(Addr pc)
{
    std::ostringstream os;
    os << "0x" << std::hex << pc;
    return os.str();
}

void
addFinding(VerifyReport &report, const Program &prog, const char *check,
           Addr pc, const std::string &message)
{
    report.add(check, Severity::Error, pc, innermostSymbol(prog, pc),
               message);
}

} // namespace

void
checkSuperblock(const Superblock &block, const Program &prog,
                const FlowCache &fc, const Translator &translator,
                VerifyReport &report)
{
    const std::string tag = "block " + hexPc(block.entryPc);

    if (block.macros.empty() || block.uops.empty()) {
        addFinding(report, prog, "tier.partial-flush", block.entryPc,
                   tag + ": empty macro or uop stream — nothing for an "
                         "exit to flush");
        return;
    }

    // The block is a linear chain of macros: every exit leaves at a
    // macro boundary, so "a clean whole-macro prefix has retired"
    // holds iff the uop ranges partition the stream in order and each
    // boundary resumes where the interpreter would.
    if (block.macros.front().op->pc != block.entryPc) {
        addFinding(report, prog, "tier.partial-flush", block.entryPc,
                   tag + ": first macro is at " +
                       hexPc(block.macros.front().op->pc) +
                       ", not the block entry");
    }

    const MacroOp *const code_base = prog.code().data();
    std::uint32_t expect_begin = 0;
    for (std::size_t mi = 0; mi < block.macros.size(); ++mi) {
        const SbMacro &m = block.macros[mi];
        const Addr mpc = m.op->pc;

        const bool range_ok =
            m.uopBegin == expect_begin && m.uopEnd >= m.uopBegin &&
            m.uopEnd <= block.uops.size();
        if (!range_ok) {
            addFinding(report, prog, "tier.partial-flush", mpc,
                       tag + ": macro " + std::to_string(mi) +
                           " uop range [" + std::to_string(m.uopBegin) +
                           ", " + std::to_string(m.uopEnd) +
                           ") does not continue the stream at " +
                           std::to_string(expect_begin) +
                           " — a mid-block exit here cannot flush a "
                           "clean whole-macro prefix");
        }
        expect_begin = m.uopEnd;

        if (mi + 1 < block.macros.size()) {
            if (block.macros[mi + 1].op->pc != m.fallThrough) {
                addFinding(report, prog, "tier.partial-flush",
                           block.macros[mi + 1].op->pc,
                           tag + ": macro " + std::to_string(mi + 1) +
                               " starts at " +
                               hexPc(block.macros[mi + 1].op->pc) +
                               " but the predecessor falls through to " +
                               hexPc(m.fallThrough) +
                               " — interpreter order diverges");
            }
            if (uncondTransfer(m.op->opcode)) {
                addFinding(report, prog, "tier.partial-flush", mpc,
                           tag + ": unconditional transfer mid-block; "
                                 "the stream would run past it into "
                                 "unreachable code");
            }
        }

        if (m.fallThrough != m.op->nextPc()) {
            addFinding(report, prog, "tier.partial-flush", mpc,
                       tag + ": recorded fall-through " +
                           hexPc(m.fallThrough) + " != nextPc " +
                           hexPc(m.op->nextPc()) +
                           " — the resume PC after an exit at this "
                           "macro would diverge from the interpreter");
        }

        if (range_ok) {
            for (std::uint32_t k = m.uopBegin; k < m.uopEnd; ++k) {
                if (block.uops[k].uop.op != MicroOpcode::Halt)
                    continue;
                addFinding(report, prog, "tier.partial-flush", mpc,
                           tag + ": uop " + std::to_string(k) +
                               ": Halt admitted to a stream — the "
                               "interpreter owns program termination");
            }
        }

        // Flow-cache provenance, keyed like the cache: the block must
        // have been compiled from exactly the entry cached under the
        // macro's recorded context, and a macro whose context can move
        // must carry the guard that re-checks it before it runs — else
        // an exit could hand the interpreter a state its own cache
        // would not reproduce.
        const auto slot = static_cast<std::size_t>(m.op - code_base);
        const FlowCache::Entry *entry =
            slot < fc.slots() ? fc.peek(slot, block.epoch, m.ctx)
                              : nullptr;
        if (!entry) {
            addFinding(report, prog, "tier.accounting-skew", mpc,
                       tag + ": macro " + std::to_string(mi) +
                           "'s flow is not cached under its recorded "
                           "context " + std::to_string(m.ctx) +
                           " — the interpreter could not reproduce "
                           "this macro");
        } else if (m.flow != &entry->flow) {
            addFinding(report, prog, "tier.accounting-skew", mpc,
                       tag + ": macro " + std::to_string(mi) +
                           " records stale flow provenance for its "
                           "flow-cache entry");
        }
        if (!m.ctxGuard && !translator.stableContextFixed(*m.op)) {
            addFinding(report, prog, "tier.accounting-skew", mpc,
                       tag + ": macro " + std::to_string(mi) +
                           "'s decode context can change but the block "
                           "does not guard it — a context switch would "
                           "replay the stale flow");
        }
    }

    if (expect_begin != block.uops.size()) {
        addFinding(report, prog, "tier.partial-flush",
                   block.macros.back().op->pc,
                   tag + ": " +
                       std::to_string(block.uops.size() - expect_begin) +
                       " trailing uop(s) belong to no macro — "
                       "unreachable by any flush");
    }
}

std::uint64_t
populateFlowCache(const Program &prog, Translator &translator,
                  FlowCache &fc, const FrontEndParams &frontend)
{
    fc.reset(prog.size());
    const std::vector<MacroOp> &code = prog.code();
    std::uint64_t epoch = translator.translationEpoch();
    for (std::size_t slot = 0; slot < code.size(); ++slot) {
        const MacroOp &op = code[slot];
        if (!translator.translationStable(op))
            continue;
        // Mirror Simulation::translatedFlow's miss path: translate,
        // run the decode-time passes, and cache under the epoch read
        // before the translation and the context it reported.
        epoch = translator.translationEpoch();
        UopFlow flow = translator.translate(op);
        applyFusionConfig(flow, frontend);
        applySpTracking(flow, frontend);
        if (flow.cacheable)
            fc.insert(slot, epoch, translator.contextId(),
                      std::move(flow));
    }
    return epoch;
}

std::vector<Addr>
regionHeads(const Program &prog)
{
    std::vector<Addr> heads;
    heads.push_back(prog.entry());
    for (const MacroOp &op : prog.code()) {
        switch (op.opcode) {
          case MacroOpcode::Jmp:
          case MacroOpcode::Jcc:
          case MacroOpcode::Call:
            if (op.target != invalidAddr)
                heads.push_back(op.target);
            break;
          default:
            break;
        }
        if (uncondTransfer(op.opcode))
            heads.push_back(op.nextPc());
    }
    std::sort(heads.begin(), heads.end());
    heads.erase(std::unique(heads.begin(), heads.end()), heads.end());
    heads.erase(std::remove_if(heads.begin(), heads.end(),
                               [&](Addr pc) { return !prog.at(pc); }),
                heads.end());
    return heads;
}

TierAudit
auditProgramTiers(const Program &prog, Translator &translator,
                  VerifyReport &report)
{
    constexpr std::size_t maxHeads = 4096;

    TierAudit audit;
    FlowCache fc;
    populateFlowCache(prog, translator, fc);

    const EnergyModel energy;
    const SuperblockBuilder builder(prog, fc, translator, energy);
    std::vector<Addr> heads = regionHeads(prog);
    if (heads.size() > maxHeads)
        heads.resize(maxHeads);

    for (const Addr head : heads) {
        ++audit.heads;
        const std::unique_ptr<Superblock> block = builder.build(head);
        if (!block)
            continue;
        ++audit.blocks;
        audit.macros += block->macros.size();
        audit.uops += block->uops.size();
        checkSuperblock(*block, prog, fc, translator, report);
    }
    return audit;
}

} // namespace csd
