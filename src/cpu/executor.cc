#include "cpu/executor.hh"

// The per-uop handlers are inline in executor.hh so the superblock
// fast path's threaded code can absorb them; only the flow-level loop
// lives here.

namespace csd
{

FlowResult
FunctionalExecutor::execute(const MacroOp &macro, const UopFlow &flow)
{
    FlowResult result;
    executeInto(macro, flow, result);
    return result;
}

void
FunctionalExecutor::executeInto(const MacroOp &macro, const UopFlow &flow,
                                FlowResult &result)
{
    result.dynUops.clear();  // keeps any spilled heap buffer
    result.nextPc = macro.nextPc();
    result.tookBranch = false;
    result.halted = false;
    result.dynUops.reserve(flow.expandedCount());

    if (flow.loop && (flow.loop->bodyEnd > flow.uops.size() ||
                      flow.loop->bodyStart > flow.loop->bodyEnd))
        csd_panic("FunctionalExecutor: malformed micro-loop");

    flow.forEachExpanded([&](const Uop &uop) {
        if (result.halted)
            return;
        DynUop dyn;
        dyn.uop = &uop;
        execUop(uop, dyn, result);
        result.dynUops.push_back(dyn);
    });

    state_.pc = result.nextPc;
}

} // namespace csd
