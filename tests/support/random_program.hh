/**
 * @file
 * Seeded generator of small well-formed programs for differential
 * tests of the execution tiers.
 *
 * Each program is a counted loop (2-9 trips) around a random
 * straight-line body: ALU ops, loads and stores into one data buffer,
 * push/pop pairs (uops the SP tracker eliminates), rep-stos
 * micro-loops, vector loads and ALU ops, multiplies, and optionally a
 * forward conditional branch. The loop back-edge and the branch target
 * are region heads, so the superblock tier compiles, chains and exits
 * blocks within one run. Every program passes ProgramBuilder's
 * structural verifier.
 *
 * Alongside the programs: a seeded schedule of CSD trigger events
 * (control-MSR writes, decoy-range and tainted-PC rewrites,
 * devectorization and MCU-mode toggles) that a differential test
 * fires between instruction slices, and a fixed vector loop whose
 * devectorizable ops sit mid-region.
 */

#ifndef CSD_TESTS_SUPPORT_RANDOM_PROGRAM_HH
#define CSD_TESTS_SUPPORT_RANDOM_PROGRAM_HH

#include <algorithm>
#include <vector>

#include "common/addr_range.hh"
#include "common/random.hh"
#include "csd/csd.hh"
#include "isa/program.hh"

namespace csd::testsupport
{

/** A generated program and the data buffer its memory ops touch. */
struct RandomProgram
{
    Program program;
    AddrRange data;
};

inline Gpr
randomGpr(Random &rng)
{
    // Rsp is excluded so push/pop keep a sane stack pointer, and R15
    // is the loop counter.
    static const Gpr regs[] = {Gpr::Rax, Gpr::Rbx, Gpr::Rcx, Gpr::Rdx,
                               Gpr::Rsi, Gpr::Rdi, Gpr::R8,  Gpr::R9,
                               Gpr::R10, Gpr::R11};
    return regs[rng.below(10)];
}

inline RandomProgram
randomProgram(Random &rng)
{
    constexpr Addr bufSize = 8192;
    ProgramBuilder b;
    const Addr buf = b.reserveData("buf", bufSize);
    b.markEntry();
    b.movri(Gpr::R15, static_cast<std::int64_t>(2 + rng.below(8)));
    const ProgramBuilder::Label top = b.newLabel();
    b.bind(top);
    const unsigned len = 6 + static_cast<unsigned>(rng.below(20));
    for (unsigned i = 0; i < len; ++i) {
        switch (rng.below(12)) {
          case 0:
            b.movri(randomGpr(rng),
                    static_cast<std::int64_t>(rng.below(1000)));
            break;
          case 1:
            b.addi(randomGpr(rng), static_cast<std::int64_t>(rng.below(64)));
            break;
          case 2:
            b.load(randomGpr(rng), memAbs(buf + 8 * rng.below(512)));
            break;
          case 3:
            b.store(memAbs(buf + 8 * rng.below(512)), randomGpr(rng));
            break;
          case 4:
            b.xor_(randomGpr(rng), randomGpr(rng));
            break;
          case 5:
            b.nop();
            break;
          case 6: {
            const Gpr reg = randomGpr(rng);
            b.push(reg);
            b.pop(reg);
            break;
          }
          case 7:
            b.repStos(buf + 64 * rng.below(8),
                      1 + static_cast<std::uint32_t>(rng.below(4)));
            break;
          case 8:
            b.lea(randomGpr(rng), memAbs(buf + rng.below(4096)));
            break;
          case 9:
            b.movdqaLoad(Xmm::Xmm0, memAbs(buf + 16 * rng.below(256)));
            break;
          case 10:
            b.vecOp(MacroOpcode::Paddd, Xmm::Xmm0, Xmm::Xmm1);
            break;
          case 11:
            b.imul(randomGpr(rng), randomGpr(rng));
            break;
        }
    }
    if (rng.below(2) == 0) {
        // Stays mid-block and exits dynamically when taken.
        b.cmpi(Gpr::Rax, 3);
        const ProgramBuilder::Label skip = b.newLabel();
        b.jcc(Cond::Ne, skip);
        b.nop();
        b.bind(skip);
        b.nop();
    }
    b.subi(Gpr::R15, 1);
    b.jcc(Cond::Ne, top);
    b.halt();
    return {b.build(), AddrRange(buf, buf + bufSize)};
}

/**
 * A fixed counted loop of @p trips iterations whose body interleaves
 * scalar ALU ops with devectorizable vector ops, none at the loop
 * head: a superblock compiled at the head meets a devectorizable macro
 * only mid-block.
 */
inline Program
vectorLoopProgram(std::int64_t trips = 64)
{
    ProgramBuilder b;
    const Addr buf = b.reserveData("vbuf", 256);
    b.markEntry();
    b.movri(Gpr::R15, trips);
    const ProgramBuilder::Label top = b.newLabel();
    b.bind(top);
    b.addi(Gpr::Rax, 1);
    b.movdqaLoad(Xmm::Xmm0, memAbs(buf + 16));
    b.xor_(Gpr::Rbx, Gpr::Rax);
    b.vecOp(MacroOpcode::Paddd, Xmm::Xmm0, Xmm::Xmm1);
    b.addi(Gpr::Rcx, 3);
    b.vecOp(MacroOpcode::Pxor, Xmm::Xmm1, Xmm::Xmm0);
    b.subi(Gpr::R15, 1);
    b.jcc(Cond::Ne, top);
    b.halt();
    return b.build();
}

/** One CSD trigger change, fired @c at instructions into a run. */
struct TriggerEvent
{
    enum class Kind : std::uint8_t
    {
        Control,     //!< CSD control MSR := bits
        DecoyRange,  //!< decoy I- or D-range register := range
        TaintedPc,   //!< tainted-PC register := pc
        Devect,      //!< setDevectorize(on)
        McuMode,     //!< setMcuMode(on)
    };

    std::uint64_t at = 0;
    Kind kind = Kind::Control;
    std::uint64_t bits = 0;  //!< Control
    unsigned index = 0;      //!< DecoyRange / TaintedPc register
    bool instrRange = false; //!< DecoyRange: I-range (else D-range)
    AddrRange range;         //!< DecoyRange
    Addr pc = 0;             //!< TaintedPc
    bool on = false;         //!< Devect / McuMode
};

/** Per run, the events to fire, in increasing @c at order. */
using TriggerSchedule = std::vector<std::vector<TriggerEvent>>;

/**
 * A seeded trigger schedule for @p runs invocations of @p gen. Control
 * writes draw a random subset of the stealth, DIFT, PC-range and
 * timing-noise bits (noise in about one write in four, since it makes
 * every translation unstable); decoy ranges land in the data buffer or
 * on the code; tainted PCs are instruction addresses of the program.
 */
inline TriggerSchedule
randomTriggerSchedule(Random &rng, const RandomProgram &gen, unsigned runs)
{
    const std::vector<MacroOp> &code = gen.program.code();
    const Addr code_begin = code.front().pc;
    const Addr code_end = code.back().nextPc();
    TriggerSchedule schedule(runs);
    for (std::vector<TriggerEvent> &events : schedule) {
        const unsigned count = static_cast<unsigned>(rng.below(6));
        for (unsigned i = 0; i < count; ++i) {
            TriggerEvent ev;
            ev.at = rng.below(300);
            switch (rng.below(5)) {
              case 0:
                ev.kind = TriggerEvent::Kind::Control;
                if (rng.below(2))
                    ev.bits |= ctrlStealthEnable;
                if (rng.below(2))
                    ev.bits |= ctrlDiftTrigger;
                if (rng.below(2))
                    ev.bits |= ctrlPcRangeTrigger;
                if (rng.below(4) == 0)
                    ev.bits |= ctrlTimingNoise;
                break;
              case 1: {
                ev.kind = TriggerEvent::Kind::DecoyRange;
                ev.index = static_cast<unsigned>(rng.below(2));
                ev.instrRange = rng.below(2) == 0;
                const Addr base = ev.instrRange ? code_begin
                                                : gen.data.start;
                const Addr span = ev.instrRange ? code_end - code_begin
                                                : gen.data.size();
                const Addr start = base + rng.below(span);
                ev.range = AddrRange(start, start + 64 + rng.below(512));
                break;
              }
              case 2:
                ev.kind = TriggerEvent::Kind::TaintedPc;
                ev.index = static_cast<unsigned>(rng.below(numTaintedPcRegs));
                ev.pc = code[rng.below(code.size())].pc;
                break;
              case 3:
                ev.kind = TriggerEvent::Kind::Devect;
                ev.on = rng.below(2) == 0;
                break;
              case 4:
                ev.kind = TriggerEvent::Kind::McuMode;
                ev.on = rng.below(3) == 0;
                break;
            }
            events.push_back(ev);
        }
        std::stable_sort(events.begin(), events.end(),
                         [](const TriggerEvent &a, const TriggerEvent &b) {
                             return a.at < b.at;
                         });
    }
    return schedule;
}

/** Fire @p ev on the decoder and its MSR file. */
inline void
applyTrigger(const TriggerEvent &ev, MsrFile &msrs,
             ContextSensitiveDecoder &csd)
{
    switch (ev.kind) {
      case TriggerEvent::Kind::Control:
        msrs.setControl(ev.bits);
        break;
      case TriggerEvent::Kind::DecoyRange:
        if (ev.instrRange)
            msrs.setDecoyIRange(ev.index, ev.range);
        else
            msrs.setDecoyDRange(ev.index, ev.range);
        break;
      case TriggerEvent::Kind::TaintedPc:
        msrs.setTaintedPc(ev.index, ev.pc);
        break;
      case TriggerEvent::Kind::Devect:
        csd.setDevectorize(ev.on);
        break;
      case TriggerEvent::Kind::McuMode:
        csd.setMcuMode(ev.on);
        break;
    }
}

} // namespace csd::testsupport

#endif // CSD_TESTS_SUPPORT_RANDOM_PROGRAM_HH
