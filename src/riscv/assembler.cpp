#include "riscv/assembler.hpp"

#include <cstdint>
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

// One pending word with the statement it came from, so an error found in
// pass 2 names its line. `symbol` non-empty means the immediate is a
// label whose value is patched in pass 2 (pc-relative for branches/jumps,
// absolute for lui/addi pairs from `la`).
struct Slot {
  Instruction instr;
  std::string symbol;
  enum class Patch { kNone, kPcRel, kAbsHi, kAbsLo } patch = Patch::kNone;
  bool is_data = false;
  std::uint32_t data = 0;
  int line_no = 0;
  std::string stmt;
};

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
    const std::string whole = stmt;
    // Labels (possibly several on a line), each defined once.
    while (true) {
      const auto colon = stmt.find(':');
      if (colon == std::string::npos) break;
      const std::string label(trim(stmt.substr(0, colon)));
      if (label.find(' ') != std::string::npos) break;  // not a label
      if (!symbols_.emplace(label, base_ + slots_.size() * 4).second)
        fail(line_no, whole, "duplicate label '" + label + "'");
      stmt = std::string(trim(stmt.substr(colon + 1)));
    }
    if (stmt.empty()) return;
    line_no_ = line_no;
    stmt_ = stmt;
    parse_instruction();
  }

  Program finish() {
    Program p;
    p.base = base_;
    p.symbols = symbols_;
    p.words.reserve(slots_.size());
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      if (slot.is_data) {
        p.words.push_back(slot.data);
        continue;
      }
      if (!slot.symbol.empty()) {
        const auto it = symbols_.find(slot.symbol);
        if (it == symbols_.end())
          fail(slot.line_no, slot.stmt,
               "undefined symbol '" + slot.symbol + "'");
        const std::uint64_t target = it->second;
        const std::uint64_t pc = base_ + i * 4;
        switch (slot.patch) {
          case Slot::Patch::kPcRel:
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
      try {
        p.words.push_back(encode(slot.instr));
      } catch (const std::invalid_argument& e) {
        fail(slot.line_no, slot.stmt, e.what());
      }
    }
    return p;
  }

 private:
  [[noreturn]] void error(const std::string& message) const {
    fail(line_no_, stmt_, message);
  }

  void emit(Instruction instr, const std::string& symbol = "",
            Slot::Patch patch = Slot::Patch::kNone) {
    slots_.push_back({instr, symbol, patch, false, 0, line_no_, stmt_});
  }
  void emit_data(std::uint32_t word) {
    Slot s;
    s.is_data = true;
    s.data = word;
    slots_.push_back(s);
  }

  int xreg(const std::string& s) const {
    const auto r = parse_int_register(s);
    if (!r) error("bad register '" + s + "'");
    return *r;
  }
  int freg(const std::string& s) const {
    const auto r = parse_fp_register(s);
    if (!r) error("bad fp register '" + s + "'");
    return *r;
  }

  std::int64_t imm(const std::string& s) const {
    try {
      std::size_t used = 0;
      const std::int64_t v = std::stoll(s, &used, 0);
      if (used != s.size()) error("bad immediate '" + s + "'");
      return v;
    } catch (const std::invalid_argument&) {
      error("bad immediate '" + s + "'");
    } catch (const std::out_of_range&) {
      error("immediate out of range '" + s + "'");
    }
  }

  // Parses "imm(reg)" into (imm, reg).
  std::pair<std::int64_t, int> mem_operand(const std::string& s) const {
    const auto open = s.find('(');
    if (open == std::string::npos || s.back() != ')')
      error("bad memory operand '" + s + "'");
    const std::string imm_str(trim(s.substr(0, open)));
    return {imm_str.empty() ? 0 : imm(imm_str),
            xreg(std::string(trim(s.substr(open + 1, s.size() - open - 2))))};
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

  // Fills the instruction of `row` from the operands, one per letter of
  // its operand list (see OpInfo).
  void emit_row(const OpInfo& row, const std::vector<std::string>& ops) {
    Instruction in;
    in.op = row.op;
    std::string label;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      switch (row.operands[i]) {
        case 'd': in.rd = xreg(ops[i]); break;
        case 's': in.rs1 = xreg(ops[i]); break;
        case 't': in.rs2 = xreg(ops[i]); break;
        case 'D': in.rd = freg(ops[i]); break;
        case 'S': in.rs1 = freg(ops[i]); break;
        case 'T': in.rs2 = freg(ops[i]); break;
        case 'i': in.imm = imm(ops[i]); break;
        case 'u':
          in.imm = static_cast<std::int64_t>(
              static_cast<std::uint64_t>(imm(ops[i])) << 12);
          break;
        case 'm': {
          const auto [offset, base] = mem_operand(ops[i]);
          in.imm = offset;
          in.rs1 = base;
          break;
        }
        case 'l': label = ops[i]; break;
      }
    }
    emit(in, label, label.empty() ? Slot::Patch::kNone : Slot::Patch::kPcRel);
  }

  void parse_instruction() {
    // Split mnemonic and comma-separated operands.
    const auto space = stmt_.find_first_of(" \t");
    const std::string mnem =
        lower(space == std::string::npos ? stmt_ : stmt_.substr(0, space));
    std::vector<std::string> ops;
    if (space != std::string::npos) {
      for (const auto& o : split(stmt_.substr(space + 1), ','))
        ops.emplace_back(trim(o));
    }
    auto need = [&](std::size_t n) {
      if (ops.size() != n)
        error("expected " + std::to_string(n) + " operands");
    };
    auto X = [&](std::size_t i) { return xreg(ops[i]); };
    auto F = [&](std::size_t i) { return freg(ops[i]); };
    auto I = [&](std::size_t i) { return imm(ops[i]); };

    // Directives.
    if (mnem == ".word") {
      need(1);
      // Signed or unsigned 32-bit: anything else would not fit the word.
      const std::int64_t v = I(0);
      if (v < INT32_MIN || v > static_cast<std::int64_t>(UINT32_MAX))
        error(".word value out of range [-2^31, 2^32-1]");
      emit_data(static_cast<std::uint32_t>(v));
      return;
    }
    if (mnem == ".dword") {
      need(1);
      const auto v = static_cast<std::uint64_t>(I(0));
      emit_data(static_cast<std::uint32_t>(v));
      emit_data(static_cast<std::uint32_t>(v >> 32));
      return;
    }

    // The second operand forms of jal and jalr.
    if (mnem == "jal" && ops.size() == 1) {  // jal label == jal ra, label
      emit({Op::kJal, 1, 0, 0, 0}, ops[0], Slot::Patch::kPcRel);
      return;
    }
    if (mnem == "jalr" && ops.size() == 3) {
      emit({Op::kJalr, X(0), X(1), 0, I(2)});
      return;
    }

    for (const OpInfo& row : op_table()) {
      if (mnem != row.mnemonic) continue;
      need(std::string_view(row.operands).size());
      emit_row(row, ops);
      return;
    }

    // ---- Pseudo instructions ----------------------------------------
    if (mnem == "fmv.d") {
      need(2);
      const int rs = F(1);
      emit({Op::kFsgnjD, F(0), rs, rs, 0});
      return;
    }
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
      emit({Op::kJal, 0, 0, 0, 0}, ops[0], Slot::Patch::kPcRel);
      return;
    }
    if (mnem == "jr") { need(1); emit({Op::kJalr, 0, X(0), 0, 0}); return; }
    if (mnem == "ret") { emit({Op::kJalr, 0, 1, 0, 0}); return; }
    if (mnem == "call") {
      need(1);
      emit({Op::kJal, 1, 0, 0, 0}, ops[0], Slot::Patch::kPcRel);
      return;
    }
    if (mnem == "beqz") {
      need(2);
      emit({Op::kBeq, 0, X(0), 0, 0}, ops[1], Slot::Patch::kPcRel);
      return;
    }
    if (mnem == "bnez") {
      need(2);
      emit({Op::kBne, 0, X(0), 0, 0}, ops[1], Slot::Patch::kPcRel);
      return;
    }
    if (mnem == "bgt") {
      need(3);
      emit({Op::kBlt, 0, X(1), X(0), 0}, ops[2], Slot::Patch::kPcRel);
      return;
    }
    if (mnem == "ble") {
      need(3);
      emit({Op::kBge, 0, X(1), X(0), 0}, ops[2], Slot::Patch::kPcRel);
      return;
    }
    if (mnem == "bgtu") {
      need(3);
      emit({Op::kBltu, 0, X(1), X(0), 0}, ops[2], Slot::Patch::kPcRel);
      return;
    }
    if (mnem == "bleu") {
      need(3);
      emit({Op::kBgeu, 0, X(1), X(0), 0}, ops[2], Slot::Patch::kPcRel);
      return;
    }
    error("unknown mnemonic '" + mnem + "'");
  }

  std::uint64_t base_;
  std::vector<Slot> slots_;
  std::map<std::string, std::uint64_t> symbols_;
  int line_no_ = 0;   // the statement being parsed
  std::string stmt_;
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
