#include "decode/fusion.hh"

namespace csd
{

void
applyFusionConfig(UopFlow &flow, const FrontEndParams &params)
{
    if (params.microFusion)
        return;
    for (Uop &uop : flow.uops) {
        uop.fusedLeader = false;
        uop.fusedFollower = false;
    }
}

unsigned
applySpTracking(UopFlow &flow, const FrontEndParams &params)
{
    if (!params.spTracker)
        return 0;
    unsigned eliminated = 0;
    const RegId rsp = intReg(Gpr::Rsp);
    for (Uop &uop : flow.uops) {
        const bool rsp_adjust =
            (uop.op == MicroOpcode::Add || uop.op == MicroOpcode::Sub) &&
            uop.dst == rsp && uop.src1 == rsp && uop.immData &&
            !uop.writesFlags;
        if (rsp_adjust && !uop.eliminated) {
            uop.eliminated = true;
            ++eliminated;
        }
    }
    return eliminated;
}

std::uint64_t
deliveredSlots(const UopFlow &flow)
{
    return flow.countExpanded([](const Uop &uop) {
        return !uop.eliminated && !uop.fusedFollower;
    });
}

std::uint64_t
deliveredUops(const UopFlow &flow)
{
    return flow.countExpanded(
        [](const Uop &uop) { return !uop.eliminated; });
}

bool
uopCacheEligible(const UopFlow &flow, const FrontEndParams &params)
{
    if (flow.fromMsrom || flow.loop || !flow.cacheable)
        return false;
    return deliveredSlots(flow) <= params.uopCacheSlotsPerWay;
}

} // namespace csd
