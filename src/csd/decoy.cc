#include "csd/decoy.hh"

#include "common/logging.hh"

namespace csd
{

namespace
{

/** Decoder temporaries reserved for decoys (t0.. are used by native
 *  translations; decoys use the top two to avoid clashes). */
const RegId decoyPtr = intTemp(numIntTemps - 2);   // t6
const RegId decoySink = intTemp(numIntTemps - 1);  // t7

Uop
decoyLoad(Addr macro_pc, bool is_instr)
{
    Uop ld;
    ld.op = MicroOpcode::Load;
    ld.dst = decoySink;
    ld.memSize = 8;
    ld.decoy = true;
    ld.instrFetch = is_instr;
    ld.macroPc = macro_pc;
    return ld;
}

} // namespace

bool
injectDecoys(UopFlow &flow, const AddrRange &range, bool is_instr,
             DecoyStyle style)
{
    if (!range.valid())
        return false;
    if (style == DecoyStyle::MicroLoop && flow.loop)
        return false;  // one micro-loop per flow

    const Addr base = blockAlign(range.start);
    const auto blocks = static_cast<std::uint32_t>(range.blockCount());
    const Addr macro_pc =
        flow.uops.empty() ? invalidAddr : flow.uops.front().macroPc;

    // Insertion point: before a trailing branch so the decoys execute
    // on both paths of a conditional.
    std::size_t insert_at = flow.uops.size();
    if (!flow.uops.empty() && flow.uops.back().isBranch())
        insert_at = flow.uops.size() - 1;

    UopVec decoys;
    if (style == DecoyStyle::Unrolled) {
        decoys.reserve(blocks);
        for (std::uint32_t blk = 0; blk < blocks; ++blk) {
            Uop ld = decoyLoad(macro_pc, is_instr);
            ld.disp = static_cast<std::int64_t>(base +
                                                blk * cacheBlockSize);
            decoys.push_back(ld);
        }
    } else {
        // mov t6, base ; top: ld t7, [t6] / add t6, t6, 64 ; iterate.
        Uop limm;
        limm.op = MicroOpcode::LoadImm;
        limm.dst = decoyPtr;
        limm.imm = static_cast<std::int64_t>(base);
        limm.decoy = true;
        limm.macroPc = macro_pc;
        decoys.push_back(limm);

        Uop ld = decoyLoad(macro_pc, is_instr);
        ld.src1 = decoyPtr;
        ld.fusedLeader = true;  // the paper's fused ld/subi pair
        decoys.push_back(ld);

        Uop add;
        add.op = MicroOpcode::Add;
        add.dst = decoyPtr;
        add.src1 = decoyPtr;
        add.immData = true;
        add.imm = cacheBlockSize;
        add.decoy = true;
        add.macroPc = macro_pc;
        add.fusedFollower = true;
        decoys.push_back(add);

        MicroLoop loop;
        loop.bodyStart = static_cast<std::uint16_t>(insert_at + 1);
        loop.bodyEnd = static_cast<std::uint16_t>(insert_at + 3);
        loop.tripCount = blocks;
        flow.loop = loop;
    }

    flow.uops.insert(flow.uops.begin() +
                         static_cast<std::ptrdiff_t>(insert_at),
                     decoys.begin(), decoys.end());
    for (std::size_t i = 0; i < flow.uops.size(); ++i)
        flow.uops[i].uopIdx =
            static_cast<std::uint8_t>(i < 255 ? i : 255);
    return true;
}

std::uint64_t
countDecoyUops(const UopFlow &flow)
{
    return flow.countExpanded([](const Uop &uop) { return uop.decoy; });
}

} // namespace csd
