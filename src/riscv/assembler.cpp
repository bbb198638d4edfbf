#include "riscv/assembler.hpp"

#include <stdexcept>

#include "common/text.hpp"
#include "riscv/isa.hpp"

namespace cryo::riscv {
namespace {

[[noreturn]] void fail(int line_no, const std::string& line,
                       const std::string& message) {
  throw std::runtime_error("assembler line " + std::to_string(line_no) +
                           ": " + message + " in '" + line + "'");
}

// One pending machine instruction; `symbol` non-empty means the immediate
// is a label whose value is patched in pass 2 (pc-relative for
// branches/jumps, absolute for lui/addi pairs from `la`).
struct Slot {
  Instruction instr;
  std::string symbol;
  enum class Patch { kNone, kBranch, kJal, kAbsHi, kAbsLo } patch =
      Patch::kNone;
  bool is_data = false;
  std::uint32_t data = 0;
};

std::int64_t parse_imm(const std::string& s, int line_no,
                       const std::string& line) {
  try {
    std::size_t used = 0;
    const std::int64_t v = std::stoll(s, &used, 0);
    if (used != s.size()) fail(line_no, line, "bad immediate '" + s + "'");
    return v;
  } catch (const std::invalid_argument&) {
    fail(line_no, line, "bad immediate '" + s + "'");
  } catch (const std::out_of_range&) {
    fail(line_no, line, "immediate out of range '" + s + "'");
  }
}

class Assembler {
 public:
  explicit Assembler(std::uint64_t base) : base_(base) {}

  void line(const std::string& raw, int line_no) {
    std::string text = raw;
    const auto hash = text.find('#');
    if (hash != std::string::npos) text = text.substr(0, hash);
    const auto slash = text.find("//");
    if (slash != std::string::npos) text = text.substr(0, slash);
    std::string stmt(trim(text));
    if (stmt.empty()) return;
    // Labels (possibly several on a line).
    while (true) {
      const auto colon = stmt.find(':');
      if (colon == std::string::npos) break;
      const std::string label(trim(stmt.substr(0, colon)));
      if (label.find(' ') != std::string::npos) break;  // not a label
      symbols_[label] = base_ + slots_.size() * 4;
      stmt = std::string(trim(stmt.substr(colon + 1)));
    }
    if (stmt.empty()) return;
    parse_instruction(stmt, line_no);
  }

  Program finish() {
    Program p;
    p.base = base_;
    p.symbols = symbols_;
    p.words.reserve(slots_.size());
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot slot = slots_[i];
      if (slot.is_data) {
        p.words.push_back(slot.data);
        continue;
      }
      if (!slot.symbol.empty()) {
        const auto it = symbols_.find(slot.symbol);
        if (it == symbols_.end())
          throw std::runtime_error("assembler: undefined symbol " +
                                   slot.symbol);
        const std::uint64_t target = it->second;
        const std::uint64_t pc = base_ + i * 4;
        switch (slot.patch) {
          case Slot::Patch::kBranch:
          case Slot::Patch::kJal:
            slot.instr.imm =
                static_cast<std::int64_t>(target) -
                static_cast<std::int64_t>(pc);
            break;
          case Slot::Patch::kAbsHi:
            slot.instr.imm = static_cast<std::int64_t>(
                (target + 0x800) & 0xFFFFF000ull);
            break;
          case Slot::Patch::kAbsLo:
            slot.instr.imm = static_cast<std::int64_t>(
                target - ((target + 0x800) & 0xFFFFF000ull));
            break;
          case Slot::Patch::kNone:
            break;
        }
      }
      p.words.push_back(encode(slot.instr));
    }
    return p;
  }

 private:
  void emit(Instruction instr, const std::string& symbol = "",
            Slot::Patch patch = Slot::Patch::kNone) {
    slots_.push_back({instr, symbol, patch, false, 0});
  }
  void emit_data(std::uint32_t word) {
    Slot s;
    s.is_data = true;
    s.data = word;
    slots_.push_back(s);
  }

  int xreg(const std::string& s, int line_no, const std::string& line) {
    const auto r = parse_int_register(s);
    if (!r) fail(line_no, line, "bad register '" + s + "'");
    return *r;
  }
  int freg(const std::string& s, int line_no, const std::string& line) {
    const auto r = parse_fp_register(s);
    if (!r) fail(line_no, line, "bad fp register '" + s + "'");
    return *r;
  }

  // Parses "imm(reg)" into (imm, reg).
  std::pair<std::int64_t, int> mem_operand(const std::string& s, int line_no,
                                           const std::string& line) {
    const auto open = s.find('(');
    const auto close = s.rfind(')');
    if (open == std::string::npos || close == std::string::npos)
      fail(line_no, line, "bad memory operand '" + s + "'");
    const std::string imm_str(trim(s.substr(0, open)));
    const std::int64_t imm =
        imm_str.empty() ? 0 : parse_imm(imm_str, line_no, line);
    const int reg =
        xreg(std::string(trim(s.substr(open + 1, close - open - 1))),
             line_no, line);
    return {imm, reg};
  }

  // Full 64-bit constant materialization (LLVM RISCVMatInt style).
  void emit_li(int rd, std::int64_t value) {
    if (value >= -2048 && value <= 2047) {
      emit({Op::kAddi, rd, 0, 0, value});
      return;
    }
    if (value >= INT32_MIN && value <= INT32_MAX) {
      const std::int64_t hi =
          (value + 0x800) & ~static_cast<std::int64_t>(0xFFF);
      const std::int64_t lo = value - hi;
      // hi fits in lui's 32-bit signed window by construction.
      std::int64_t hi_sext = static_cast<std::int32_t>(hi);
      emit({Op::kLui, rd, 0, 0, hi_sext});
      if (lo != 0) emit({Op::kAddiw, rd, rd, 0, lo});
      return;
    }
    const std::int64_t lo12 =
        (value << 52) >> 52;  // sign-extended low 12 bits
    // value - lo12 overflows int64 near the top of the range (INT64_MAX
    // has lo12 = -1); subtract modulo 2^64, which is what the register
    // arithmetic of the emitted sequence does anyway.
    const std::int64_t hi =
        static_cast<std::int64_t>(static_cast<std::uint64_t>(value) -
                                  static_cast<std::uint64_t>(lo12)) >>
        12;
    emit_li(rd, hi);
    emit({Op::kSlli, rd, rd, 0, 12});
    if (lo12 != 0) emit({Op::kAddi, rd, rd, 0, lo12});
  }

  void parse_instruction(const std::string& stmt, int line_no) {
    // Split mnemonic and comma-separated operands.
    const auto space = stmt.find_first_of(" \t");
    const std::string mnem =
        lower(space == std::string::npos ? stmt : stmt.substr(0, space));
    std::vector<std::string> ops;
    if (space != std::string::npos) {
      for (const auto& o : split(stmt.substr(space + 1), ','))
        ops.emplace_back(trim(o));
    }
    auto need = [&](std::size_t n) {
      if (ops.size() != n)
        fail(line_no, stmt, "expected " + std::to_string(n) + " operands");
    };
    auto X = [&](std::size_t i) { return xreg(ops[i], line_no, stmt); };
    auto F = [&](std::size_t i) { return freg(ops[i], line_no, stmt); };
    auto I = [&](std::size_t i) { return parse_imm(ops[i], line_no, stmt); };

    // Directives.
    if (mnem == ".word") {
      need(1);
      emit_data(static_cast<std::uint32_t>(I(0)));
      return;
    }
    if (mnem == ".dword") {
      need(1);
      const auto v = static_cast<std::uint64_t>(I(0));
      emit_data(static_cast<std::uint32_t>(v));
      emit_data(static_cast<std::uint32_t>(v >> 32));
      return;
    }

    static const std::map<std::string, Op> kRType = {
        {"add", Op::kAdd},   {"sub", Op::kSub},   {"sll", Op::kSll},
        {"slt", Op::kSlt},   {"sltu", Op::kSltu}, {"xor", Op::kXor},
        {"srl", Op::kSrl},   {"sra", Op::kSra},   {"or", Op::kOr},
        {"and", Op::kAnd},   {"addw", Op::kAddw}, {"subw", Op::kSubw},
        {"sllw", Op::kSllw}, {"srlw", Op::kSrlw}, {"sraw", Op::kSraw},
        {"mul", Op::kMul},   {"mulh", Op::kMulh}, {"mulhu", Op::kMulhu},
        {"div", Op::kDiv},   {"divu", Op::kDivu}, {"rem", Op::kRem},
        {"remu", Op::kRemu}, {"mulw", Op::kMulw}, {"divw", Op::kDivw},
        {"remw", Op::kRemw}};
    static const std::map<std::string, Op> kIType = {
        {"addi", Op::kAddi},   {"slti", Op::kSlti},  {"sltiu", Op::kSltiu},
        {"xori", Op::kXori},   {"ori", Op::kOri},    {"andi", Op::kAndi},
        {"slli", Op::kSlli},   {"srli", Op::kSrli},  {"srai", Op::kSrai},
        {"addiw", Op::kAddiw}, {"slliw", Op::kSlliw},
        {"srliw", Op::kSrliw}, {"sraiw", Op::kSraiw}};
    static const std::map<std::string, Op> kLoads = {
        {"lb", Op::kLb},   {"lh", Op::kLh},   {"lw", Op::kLw},
        {"ld", Op::kLd},   {"lbu", Op::kLbu}, {"lhu", Op::kLhu},
        {"lwu", Op::kLwu}};
    static const std::map<std::string, Op> kStores = {
        {"sb", Op::kSb}, {"sh", Op::kSh}, {"sw", Op::kSw}, {"sd", Op::kSd}};
    static const std::map<std::string, Op> kBranches = {
        {"beq", Op::kBeq},   {"bne", Op::kBne},   {"blt", Op::kBlt},
        {"bge", Op::kBge},   {"bltu", Op::kBltu}, {"bgeu", Op::kBgeu}};
    static const std::map<std::string, Op> kFpR = {
        {"fadd.d", Op::kFaddD}, {"fsub.d", Op::kFsubD},
        {"fmul.d", Op::kFmulD}, {"fdiv.d", Op::kFdivD}};
    static const std::map<std::string, Op> kFpCmp = {
        {"feq.d", Op::kFeqD}, {"flt.d", Op::kFltD}, {"fle.d", Op::kFleD}};

    if (const auto it = kRType.find(mnem); it != kRType.end()) {
      need(3);
      emit({it->second, X(0), X(1), X(2), 0});
      return;
    }
    if (const auto it = kIType.find(mnem); it != kIType.end()) {
      need(3);
      emit({it->second, X(0), X(1), 0, I(2)});
      return;
    }
    if (const auto it = kLoads.find(mnem); it != kLoads.end()) {
      need(2);
      const auto [imm, rs1] = mem_operand(ops[1], line_no, stmt);
      emit({it->second, X(0), rs1, 0, imm});
      return;
    }
    if (const auto it = kStores.find(mnem); it != kStores.end()) {
      need(2);
      const auto [imm, rs1] = mem_operand(ops[1], line_no, stmt);
      emit({it->second, 0, rs1, X(0), imm});
      return;
    }
    if (const auto it = kBranches.find(mnem); it != kBranches.end()) {
      need(3);
      emit({it->second, 0, X(0), X(1), 0}, ops[2], Slot::Patch::kBranch);
      return;
    }
    if (const auto it = kFpR.find(mnem); it != kFpR.end()) {
      need(3);
      emit({it->second, F(0), F(1), F(2), 0});
      return;
    }
    if (const auto it = kFpCmp.find(mnem); it != kFpCmp.end()) {
      need(3);
      emit({it->second, X(0), F(1), F(2), 0});
      return;
    }

    if (mnem == "lui") {
      need(2);
      emit({Op::kLui, X(0), 0, 0, I(1) << 12});
      return;
    }
    if (mnem == "auipc") {
      need(2);
      emit({Op::kAuipc, X(0), 0, 0, I(1) << 12});
      return;
    }
    if (mnem == "jal") {
      if (ops.size() == 1) {  // jal label == jal ra, label
        emit({Op::kJal, 1, 0, 0, 0}, ops[0], Slot::Patch::kJal);
        return;
      }
      need(2);
      emit({Op::kJal, X(0), 0, 0, 0}, ops[1], Slot::Patch::kJal);
      return;
    }
    if (mnem == "jalr") {
      if (ops.size() == 2) {
        const auto [imm, rs1] = mem_operand(ops[1], line_no, stmt);
        emit({Op::kJalr, X(0), rs1, 0, imm});
        return;
      }
      need(3);
      emit({Op::kJalr, X(0), X(1), 0, I(2)});
      return;
    }
    if (mnem == "fld" || mnem == "fsd") {
      need(2);
      const auto [imm, rs1] = mem_operand(ops[1], line_no, stmt);
      if (mnem == "fld")
        emit({Op::kFld, F(0), rs1, 0, imm});
      else
        emit({Op::kFsd, 0, rs1, F(0), imm});
      return;
    }
    if (mnem == "fsqrt.d") { need(2); emit({Op::kFsqrtD, F(0), F(1), 0, 0}); return; }
    if (mnem == "fcvt.l.d") { need(2); emit({Op::kFcvtLD, X(0), F(1), 0, 0}); return; }
    if (mnem == "fcvt.d.l") { need(2); emit({Op::kFcvtDL, F(0), X(1), 0, 0}); return; }
    if (mnem == "fmv.x.d") { need(2); emit({Op::kFmvXD, X(0), F(1), 0, 0}); return; }
    if (mnem == "fmv.d.x") { need(2); emit({Op::kFmvDX, F(0), X(1), 0, 0}); return; }
    if (mnem == "fmv.d" || mnem == "fsgnj.d") {
      need(2 + (mnem == "fsgnj.d" ? 1 : 0));
      const int rs = F(1);
      emit({Op::kFsgnjD, F(0), rs, mnem == "fsgnj.d" ? F(2) : rs, 0});
      return;
    }
    if (mnem == "cpop") { need(2); emit({Op::kCpop, X(0), X(1), 0, 0}); return; }
    if (mnem == "ecall") { emit({Op::kEcall, 0, 0, 0, 0}); return; }
    if (mnem == "ebreak") { emit({Op::kEbreak, 0, 0, 0, 0}); return; }

    // ---- Pseudo instructions ----------------------------------------
    if (mnem == "nop") { emit({Op::kAddi, 0, 0, 0, 0}); return; }
    if (mnem == "mv") { need(2); emit({Op::kAddi, X(0), X(1), 0, 0}); return; }
    if (mnem == "not") { need(2); emit({Op::kXori, X(0), X(1), 0, -1}); return; }
    if (mnem == "neg") { need(2); emit({Op::kSub, X(0), 0, X(1), 0}); return; }
    if (mnem == "li") {
      need(2);
      emit_li(X(0), I(1));
      return;
    }
    if (mnem == "la") {
      need(2);
      emit({Op::kLui, X(0), 0, 0, 0}, ops[1], Slot::Patch::kAbsHi);
      emit({Op::kAddi, X(0), X(0), 0, 0}, ops[1], Slot::Patch::kAbsLo);
      return;
    }
    if (mnem == "j") {
      need(1);
      emit({Op::kJal, 0, 0, 0, 0}, ops[0], Slot::Patch::kJal);
      return;
    }
    if (mnem == "jr") { need(1); emit({Op::kJalr, 0, X(0), 0, 0}); return; }
    if (mnem == "ret") { emit({Op::kJalr, 0, 1, 0, 0}); return; }
    if (mnem == "call") {
      need(1);
      emit({Op::kJal, 1, 0, 0, 0}, ops[0], Slot::Patch::kJal);
      return;
    }
    if (mnem == "beqz") {
      need(2);
      emit({Op::kBeq, 0, X(0), 0, 0}, ops[1], Slot::Patch::kBranch);
      return;
    }
    if (mnem == "bnez") {
      need(2);
      emit({Op::kBne, 0, X(0), 0, 0}, ops[1], Slot::Patch::kBranch);
      return;
    }
    if (mnem == "bgt") {
      need(3);
      emit({Op::kBlt, 0, X(1), X(0), 0}, ops[2], Slot::Patch::kBranch);
      return;
    }
    if (mnem == "ble") {
      need(3);
      emit({Op::kBge, 0, X(1), X(0), 0}, ops[2], Slot::Patch::kBranch);
      return;
    }
    if (mnem == "bgtu") {
      need(3);
      emit({Op::kBltu, 0, X(1), X(0), 0}, ops[2], Slot::Patch::kBranch);
      return;
    }
    if (mnem == "bleu") {
      need(3);
      emit({Op::kBgeu, 0, X(1), X(0), 0}, ops[2], Slot::Patch::kBranch);
      return;
    }
    fail(line_no, stmt, "unknown mnemonic '" + mnem + "'");
  }

  std::uint64_t base_;
  std::vector<Slot> slots_;
  std::map<std::string, std::uint64_t> symbols_;
};

}  // namespace

std::uint64_t Program::symbol(const std::string& name) const {
  const auto it = symbols.find(name);
  if (it == symbols.end())
    throw std::out_of_range("Program::symbol: undefined " + name);
  return it->second;
}

Program assemble(const std::string& source, std::uint64_t base) {
  Assembler as(base);
  int line_no = 0;
  for (const auto& line : split(source, '\n')) as.line(line, ++line_no);
  return as.finish();
}

}  // namespace cryo::riscv
