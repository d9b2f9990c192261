#include "isa/program.hh"

#include <sstream>

#include "common/bitutils.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "isa/finding.hh"

namespace csd
{

const MacroOp *
Program::atSparse(Addr pc) const
{
    auto it = pcIndex_.find(pc);
    if (it == pcIndex_.end())
        return nullptr;
    return &code_[it->second];
}

AddrRange
Program::symbol(const std::string &name) const
{
    auto it = symbols_.find(name);
    if (it == symbols_.end())
        csd_fatal("Program: unknown symbol ", name);
    return it->second;
}

bool
Program::hasSymbol(const std::string &name) const
{
    return symbols_.count(name) != 0;
}

std::string
innermostSymbol(const Program &prog, Addr pc)
{
    // Innermost = smallest covering range (symbols may nest).
    const std::string *best = nullptr;
    Addr best_size = 0;
    for (const auto &[name, range] : prog.symbols()) {
        if (!range.valid() || !range.contains(pc))
            continue;
        if (!best || range.size() < best_size) {
            best = &name;
            best_size = range.size();
        }
    }
    return best ? *best : std::string();
}

AddrRange
Program::codeRange() const
{
    if (code_.empty())
        return AddrRange();
    return AddrRange(code_.front().pc, code_.back().nextPc());
}

MemOperand
memAt(Gpr base, std::int64_t disp, MemSize size)
{
    MemOperand mem;
    mem.base = base;
    mem.disp = disp;
    mem.size = size;
    return mem;
}

MemOperand
memIdx(Gpr base, Gpr index, std::uint8_t scale, std::int64_t disp,
       MemSize size)
{
    MemOperand mem;
    mem.base = base;
    mem.index = index;
    mem.scale = scale;
    mem.disp = disp;
    mem.size = size;
    return mem;
}

MemOperand
memAbs(Addr addr, MemSize size)
{
    MemOperand mem;
    mem.disp = static_cast<std::int64_t>(addr);
    mem.size = size;
    return mem;
}

MemOperand
memTable(Addr table, Gpr index, std::uint8_t scale, MemSize size)
{
    MemOperand mem;
    mem.index = index;
    mem.scale = scale;
    mem.disp = static_cast<std::int64_t>(table);
    mem.size = size;
    return mem;
}

ProgramBuilder::ProgramBuilder(Addr code_base, Addr data_base)
    : cursor_(code_base), dataCursor_(data_base)
{
}

ProgramBuilder::Label
ProgramBuilder::newLabel()
{
    labelAddrs_.push_back(invalidAddr);
    return static_cast<Label>(labelAddrs_.size() - 1);
}

void
ProgramBuilder::bind(Label label)
{
    if (label < 0 || static_cast<std::size_t>(label) >= labelAddrs_.size())
        csd_panic("ProgramBuilder::bind: bad label");
    if (labelAddrs_[label] != invalidAddr)
        csd_panic("ProgramBuilder::bind: label bound twice");
    labelAddrs_[label] = cursor_;
}

void
ProgramBuilder::alignCode(unsigned alignment)
{
    if (alignment == 0 || !isPowerOf2(alignment))
        csd_panic("alignCode: alignment must be a power of two");
    cursor_ = roundUp(cursor_, static_cast<Addr>(alignment));
}

void
ProgramBuilder::beginSymbol(const std::string &name)
{
    if (openSymbols_.count(name))
        csd_panic("beginSymbol: ", name, " already open");
    openSymbols_[name] = cursor_;
}

void
ProgramBuilder::endSymbol(const std::string &name)
{
    auto it = openSymbols_.find(name);
    if (it == openSymbols_.end())
        csd_panic("endSymbol: ", name, " was not opened");
    symbols_[name] = AddrRange(it->second, cursor_);
    openSymbols_.erase(it);
}

void
ProgramBuilder::markEntry()
{
    entry_ = cursor_;
}

Addr
ProgramBuilder::defineData(const std::string &name,
                           const std::vector<std::uint8_t> &bytes,
                           unsigned align)
{
    dataCursor_ = roundUp(dataCursor_, static_cast<Addr>(align));
    const Addr addr = dataCursor_;
    data_.emplace_back(addr, bytes);
    dataCursor_ += bytes.size();
    symbols_[name] = AddrRange(addr, addr + bytes.size());
    return addr;
}

Addr
ProgramBuilder::defineDataWords(const std::string &name,
                                const std::vector<std::uint32_t> &words,
                                unsigned align)
{
    std::vector<std::uint8_t> bytes;
    bytes.reserve(words.size() * 4);
    for (std::uint32_t w : words) {
        bytes.push_back(w & 0xff);
        bytes.push_back((w >> 8) & 0xff);
        bytes.push_back((w >> 16) & 0xff);
        bytes.push_back((w >> 24) & 0xff);
    }
    return defineData(name, bytes, align);
}

Addr
ProgramBuilder::reserveData(const std::string &name, std::size_t size,
                            unsigned align)
{
    return defineData(name, std::vector<std::uint8_t>(size, 0), align);
}

void
ProgramBuilder::place(MacroOp &op)
{
    op.pc = cursor_;
    op.length = encodedLength(op);
    cursor_ += op.length;
    code_.push_back(op);
}

void
ProgramBuilder::movri(Gpr dst, std::int64_t imm)
{
    MacroOp op;
    op.opcode = MacroOpcode::MovRI;
    op.dst = dst;
    op.imm = imm;
    place(op);
}

void
ProgramBuilder::movrr(Gpr dst, Gpr src)
{
    MacroOp op;
    op.opcode = MacroOpcode::MovRR;
    op.dst = dst;
    op.src1 = src;
    place(op);
}

void
ProgramBuilder::load(Gpr dst, const MemOperand &mem)
{
    MacroOp op;
    op.opcode = MacroOpcode::Load;
    op.dst = dst;
    op.mem = mem;
    op.hasMem = true;
    place(op);
}

void
ProgramBuilder::store(const MemOperand &mem, Gpr src)
{
    MacroOp op;
    op.opcode = MacroOpcode::Store;
    op.src1 = src;
    op.mem = mem;
    op.hasMem = true;
    place(op);
}

void
ProgramBuilder::storeImm(const MemOperand &mem, std::int32_t imm)
{
    MacroOp op;
    op.opcode = MacroOpcode::StoreImm;
    op.imm = imm;
    op.mem = mem;
    op.hasMem = true;
    place(op);
}

void
ProgramBuilder::lea(Gpr dst, const MemOperand &mem)
{
    MacroOp op;
    op.opcode = MacroOpcode::Lea;
    op.dst = dst;
    op.mem = mem;
    op.hasMem = true;
    place(op);
}

void
ProgramBuilder::push(Gpr src)
{
    MacroOp op;
    op.opcode = MacroOpcode::Push;
    op.src1 = src;
    place(op);
}

void
ProgramBuilder::pop(Gpr dst)
{
    MacroOp op;
    op.opcode = MacroOpcode::Pop;
    op.dst = dst;
    place(op);
}

void
ProgramBuilder::alu(MacroOpcode opcode, Gpr dst, Gpr src, OpWidth width)
{
    MacroOp op;
    op.opcode = opcode;
    op.dst = dst;
    op.src1 = src;
    op.width = width;
    place(op);
}

void
ProgramBuilder::aluImm(MacroOpcode opcode, Gpr dst, std::int64_t imm,
                       OpWidth width)
{
    MacroOp op;
    op.opcode = opcode;
    op.dst = dst;
    op.imm = imm;
    op.width = width;
    place(op);
}

void
ProgramBuilder::aluMem(MacroOpcode opcode, Gpr dst, const MemOperand &mem,
                       OpWidth width)
{
    MacroOp op;
    op.opcode = opcode;
    op.dst = dst;
    op.mem = mem;
    op.hasMem = true;
    op.width = width;
    place(op);
}

void
ProgramBuilder::jmp(Label target)
{
    MacroOp op;
    op.opcode = MacroOpcode::Jmp;
    fixups_.emplace_back(code_.size(), target);
    place(op);
}

void
ProgramBuilder::jcc(Cond cond, Label target)
{
    MacroOp op;
    op.opcode = MacroOpcode::Jcc;
    op.cond = cond;
    fixups_.emplace_back(code_.size(), target);
    place(op);
}

void
ProgramBuilder::jmpInd(Gpr target)
{
    MacroOp op;
    op.opcode = MacroOpcode::JmpInd;
    op.src1 = target;
    place(op);
}

void
ProgramBuilder::call(Label target)
{
    MacroOp op;
    op.opcode = MacroOpcode::Call;
    fixups_.emplace_back(code_.size(), target);
    place(op);
}

void
ProgramBuilder::ret()
{
    MacroOp op;
    op.opcode = MacroOpcode::Ret;
    place(op);
}

void
ProgramBuilder::movdqaLoad(Xmm dst, const MemOperand &mem)
{
    MacroOp op;
    op.opcode = MacroOpcode::MovdqaLoad;
    op.xdst = dst;
    op.mem = mem;
    op.mem.size = MemSize::B16;
    op.hasMem = true;
    place(op);
}

void
ProgramBuilder::movdqaStore(const MemOperand &mem, Xmm src)
{
    MacroOp op;
    op.opcode = MacroOpcode::MovdqaStore;
    op.xsrc = src;
    op.mem = mem;
    op.mem.size = MemSize::B16;
    op.hasMem = true;
    place(op);
}

void
ProgramBuilder::movdqaRR(Xmm dst, Xmm src)
{
    MacroOp op;
    op.opcode = MacroOpcode::MovdqaRR;
    op.xdst = dst;
    op.xsrc = src;
    place(op);
}

void
ProgramBuilder::vecOp(MacroOpcode opcode, Xmm dst, Xmm src)
{
    if (!isVector(opcode))
        csd_panic("vecOp: not a vector opcode");
    MacroOp op;
    op.opcode = opcode;
    op.xdst = dst;
    op.xsrc = src;
    place(op);
}

void
ProgramBuilder::vecShiftImm(MacroOpcode opcode, Xmm dst, std::uint8_t imm)
{
    if (opcode != MacroOpcode::PslldI && opcode != MacroOpcode::PsrldI)
        csd_panic("vecShiftImm: not a vector shift");
    MacroOp op;
    op.opcode = opcode;
    op.xdst = dst;
    op.imm = imm;
    place(op);
}

void
ProgramBuilder::nop()
{
    MacroOp op;
    op.opcode = MacroOpcode::Nop;
    place(op);
}

void
ProgramBuilder::clflush(const MemOperand &mem)
{
    MacroOp op;
    op.opcode = MacroOpcode::Clflush;
    op.mem = mem;
    op.hasMem = true;
    place(op);
}

void
ProgramBuilder::rdtsc()
{
    MacroOp op;
    op.opcode = MacroOpcode::Rdtsc;
    op.dst = Gpr::Rax;
    place(op);
}

void
ProgramBuilder::cpuid()
{
    MacroOp op;
    op.opcode = MacroOpcode::Cpuid;
    place(op);
}

void
ProgramBuilder::repStos(Addr base, std::uint32_t block_count)
{
    MacroOp op;
    op.opcode = MacroOpcode::RepStosI;
    op.imm = static_cast<std::int64_t>(base);
    op.imm2 = block_count;
    place(op);
}

void
ProgramBuilder::halt()
{
    MacroOp op;
    op.opcode = MacroOpcode::Halt;
    place(op);
}

void
ProgramBuilder::emit(MacroOp op)
{
    place(op);
}

Program
ProgramBuilder::build()
{
    if (!openSymbols_.empty())
        csd_panic("ProgramBuilder::build: unclosed symbol ",
                  openSymbols_.begin()->first);

    for (const auto &[idx, label] : fixups_) {
        if (labelAddrs_[label] == invalidAddr)
            csd_panic("ProgramBuilder::build: unbound label ", label);
        code_[idx].target = labelAddrs_[label];
    }

    Program prog;
    prog.code_ = code_;
    prog.entry_ = entry_ != invalidAddr
        ? entry_
        : (code_.empty() ? invalidAddr : code_.front().pc);
    prog.data_ = data_;
    prog.symbols_ = symbols_;
    for (std::size_t i = 0; i < prog.code_.size(); ++i)
        prog.pcIndex_[prog.code_[i].pc] = i;
    if (!prog.code_.empty()) {
        const Addr lo = prog.code_.front().pc;
        const Addr hi = prog.code_.back().nextPc();
        // Tabulate unless the code span is pathologically sparse
        // (handcrafted far-apart PCs); the map handles those.
        if (hi - lo <= (std::size_t{1} << 22)) {
            prog.codeBase_ = lo;
            prog.denseIndex_.assign(hi - lo, -1);
            for (std::size_t i = 0; i < prog.code_.size(); ++i)
                prog.denseIndex_[prog.code_[i].pc - lo] =
                    static_cast<std::int32_t>(i);
        }
    }
    verifyStructure(prog);
    return prog;
}

void
ProgramBuilder::verifyStructure(const Program &prog) const
{
    // The cheap structural subset of csd-verify (verify/verify.hh);
    // the full dataflow/leak analysis is opt-in via csd-lint. Gated by
    // setVerify(false) per builder or CSD_VERIFY=0 globally so
    // deliberately broken programs (verifier self-tests) can still be
    // assembled.
    if (!verify_ || !knobFlag(Knob::Verify, true) || prog.code_.empty())
        return;

    // Unified with the csd-verify diagnostic path: structural errors
    // are reported as verify::Finding records carrying the innermost
    // enclosing symbol, then escalated to a fatal error (a program
    // that fails them would make the simulator wander into undefined
    // fetch behavior).
    VerifyReport report;
    for (const MacroOp &op : prog.code_) {
        if (!isDirectBranch(op.opcode) && !isCall(op.opcode))
            continue;
        if (!prog.at(op.target)) {
            report.add("cfg.dangling-target", Severity::Error, op.pc,
                       innermostSymbol(prog, op.pc),
                       disassemble(op) +
                           " targets an address where no instruction "
                           "starts");
        }
    }
    if (!prog.at(prog.entry_)) {
        std::ostringstream entry_pc;
        entry_pc << "0x" << std::hex << prog.entry_;
        report.add("cfg.bad-entry", Severity::Error, prog.entry_,
                   innermostSymbol(prog, prog.entry_),
                   "entry PC " + entry_pc.str() +
                       " does not start an instruction");
    }
    if (report.hasErrors())
        csd_fatal("ProgramBuilder::build:\n", report.text());
}

} // namespace csd
