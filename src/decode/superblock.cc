#include "decode/superblock.hh"

#include "decode/fusion.hh"

namespace csd
{

namespace
{

/** Does the flow contain a Halt uop (never admitted to a block)? */
bool
containsHalt(const UopFlow &flow)
{
    for (const Uop &uop : flow.uops)
        if (uop.op == MicroOpcode::Halt)
            return true;
    return false;
}

/** Region ends inclusively at an unconditional control transfer. */
bool
endsRegion(MacroOpcode op)
{
    return op == MacroOpcode::Jmp || op == MacroOpcode::JmpInd ||
           op == MacroOpcode::Call || op == MacroOpcode::Ret;
}

} // namespace

const char *
sbExitName(SbExit exit)
{
    // Exhaustive on purpose (no default): a new SbExit enumerator
    // without a sidecar name fails to compile under -Werror=switch,
    // and the static_assert catches a count drift even without it.
    static_assert(numSbExits == 5,
                  "new SbExit enumerator: name it here and cover it in "
                  "tests/sim/test_superblock.cc");
    switch (exit) {
      case SbExit::End:       return "end";
      case SbExit::Branch:    return "branch";
      case SbExit::EpochBump: return "epoch_bump";
      case SbExit::Unstable:  return "unstable";
      case SbExit::Budget:    return "budget";
      case SbExit::NumExits:  break;
    }
    return "?";
}

std::unique_ptr<Superblock>
SuperblockBuilder::build(Addr entry_pc) const
{
    const Program &prog = prog_;
    const FlowCache &fc = fc_;
    const Translator &translator = translator_;
    const EnergyModel &energy = energy_;
    const SuperblockLimits &limits = limits_;

    const std::uint64_t epoch = translator.translationEpoch();
    auto block = std::make_unique<Superblock>();
    block->entryPc = entry_pc;
    block->epoch = epoch;

    const MacroOp *const code_base = prog.code().data();

    Addr pc = entry_pc;
    for (;;) {
        const MacroOp *op = prog.at(pc);
        if (!op)
            break;
        const auto slot = static_cast<std::size_t>(op - code_base);
        if (slot >= fc.slots())
            break;
        // The interpreter owns program termination (Halt commits but
        // isn't counted by run()'s budget).
        if (op->opcode == MacroOpcode::Halt)
            break;
        if (!translator.translationStable(*op))
            break;
        const FlowCache::Entry *entry =
            fc.peek(slot, epoch, translator.stableContext(*op));
        if (!entry)
            break;
        const UopFlow &flow = entry->flow;
        if (containsHalt(flow))
            break;

        const std::uint64_t expand = flow.expandedCount();
        if (block->macros.size() >= limits.maxMacros ||
            block->uops.size() + expand > limits.maxUops)
            break;

        SbMacro macro;
        macro.op = op;
        macro.flow = &flow;
        macro.ctx = entry->ctx;
        macro.fallThrough = op->nextPc();
        macro.uopBegin = static_cast<std::uint32_t>(block->uops.size());
        macro.dynCount = static_cast<std::uint32_t>(expand);
        macro.delivered = deliveredUops(flow);
        flow.forEachExpanded([&](const Uop &uop) {
            SbOp sbop;
            sbop.uop = uop;
            sbop.energy = energy.uopEnergy(uop);
            sbop.handler = uopHandler(uop);
            sbop.vpu = onVpu(uop);
            sbop.counted = !uop.eliminated;
            block->uops.push_back(sbop);
        });
        macro.uopEnd = static_cast<std::uint32_t>(block->uops.size());
        block->macros.push_back(macro);

        if (endsRegion(op->opcode))
            break;
        // Conditional branches stay mid-block: the stream follows the
        // fall-through edge and exits dynamically when one is taken.
        pc = op->nextPc();
    }

    if (block->macros.size() < limits.minMacros)
        return nullptr;
    return block;
}

} // namespace csd
