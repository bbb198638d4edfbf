#include "riscv/isa.hpp"

#include <array>
#include <stdexcept>
#include <string_view>

namespace cryo::riscv {
namespace {

using enum ImmFormat;
using enum OpClass;

// Masks: the opcode alone (U/J), plus funct3 (I/S/B), plus funct6 (the
// RV64 shifts, whose shamt takes bit 25), plus funct7 (R), plus the rs2
// field too (funct12), and every bit.
constexpr std::uint32_t kOpc = 0x0000007Fu;
constexpr std::uint32_t kF3 = 0x0000707Fu;
constexpr std::uint32_t kF6 = 0xFC00707Fu;
constexpr std::uint32_t kF7 = 0xFE00707Fu;
constexpr std::uint32_t kF12 = 0xFFF0707Fu;
constexpr std::uint32_t kAll = 0xFFFFFFFFu;

constexpr std::array<OpInfo, 77> kTable = {{
    {Op::kLui, "lui", 0x00000037, kOpc, kU, "du", kAlu},
    {Op::kAuipc, "auipc", 0x00000017, kOpc, kU, "du", kAlu},
    {Op::kJal, "jal", 0x0000006F, kOpc, kJ, "dl", kJump},
    {Op::kJalr, "jalr", 0x00000067, kF3, kI, "dm", kJump},
    {Op::kBeq, "beq", 0x00000063, kF3, kB, "stl", kBranch},
    {Op::kBne, "bne", 0x00001063, kF3, kB, "stl", kBranch},
    {Op::kBlt, "blt", 0x00004063, kF3, kB, "stl", kBranch},
    {Op::kBge, "bge", 0x00005063, kF3, kB, "stl", kBranch},
    {Op::kBltu, "bltu", 0x00006063, kF3, kB, "stl", kBranch},
    {Op::kBgeu, "bgeu", 0x00007063, kF3, kB, "stl", kBranch},
    {Op::kLb, "lb", 0x00000003, kF3, kI, "dm", kLoad},
    {Op::kLh, "lh", 0x00001003, kF3, kI, "dm", kLoad},
    {Op::kLw, "lw", 0x00002003, kF3, kI, "dm", kLoad},
    {Op::kLd, "ld", 0x00003003, kF3, kI, "dm", kLoad},
    {Op::kLbu, "lbu", 0x00004003, kF3, kI, "dm", kLoad},
    {Op::kLhu, "lhu", 0x00005003, kF3, kI, "dm", kLoad},
    {Op::kLwu, "lwu", 0x00006003, kF3, kI, "dm", kLoad},
    {Op::kSb, "sb", 0x00000023, kF3, kS, "tm", kStore},
    {Op::kSh, "sh", 0x00001023, kF3, kS, "tm", kStore},
    {Op::kSw, "sw", 0x00002023, kF3, kS, "tm", kStore},
    {Op::kSd, "sd", 0x00003023, kF3, kS, "tm", kStore},
    {Op::kAddi, "addi", 0x00000013, kF3, kI, "dsi", kAlu},
    {Op::kSlti, "slti", 0x00002013, kF3, kI, "dsi", kAlu},
    {Op::kSltiu, "sltiu", 0x00003013, kF3, kI, "dsi", kAlu},
    {Op::kXori, "xori", 0x00004013, kF3, kI, "dsi", kAlu},
    {Op::kOri, "ori", 0x00006013, kF3, kI, "dsi", kAlu},
    {Op::kAndi, "andi", 0x00007013, kF3, kI, "dsi", kAlu},
    {Op::kSlli, "slli", 0x00001013, kF6, kShamt6, "dsi", kAlu},
    {Op::kSrli, "srli", 0x00005013, kF6, kShamt6, "dsi", kAlu},
    {Op::kSrai, "srai", 0x40005013, kF6, kShamt6, "dsi", kAlu},
    {Op::kAddiw, "addiw", 0x0000001B, kF3, kI, "dsi", kAlu},
    {Op::kSlliw, "slliw", 0x0000101B, kF7, kShamt5, "dsi", kAlu},
    {Op::kSrliw, "srliw", 0x0000501B, kF7, kShamt5, "dsi", kAlu},
    {Op::kSraiw, "sraiw", 0x4000501B, kF7, kShamt5, "dsi", kAlu},
    {Op::kAdd, "add", 0x00000033, kF7, kNone, "dst", kAlu},
    {Op::kSub, "sub", 0x40000033, kF7, kNone, "dst", kAlu},
    {Op::kSll, "sll", 0x00001033, kF7, kNone, "dst", kAlu},
    {Op::kSlt, "slt", 0x00002033, kF7, kNone, "dst", kAlu},
    {Op::kSltu, "sltu", 0x00003033, kF7, kNone, "dst", kAlu},
    {Op::kXor, "xor", 0x00004033, kF7, kNone, "dst", kAlu},
    {Op::kSrl, "srl", 0x00005033, kF7, kNone, "dst", kAlu},
    {Op::kSra, "sra", 0x40005033, kF7, kNone, "dst", kAlu},
    {Op::kOr, "or", 0x00006033, kF7, kNone, "dst", kAlu},
    {Op::kAnd, "and", 0x00007033, kF7, kNone, "dst", kAlu},
    {Op::kAddw, "addw", 0x0000003B, kF7, kNone, "dst", kAlu},
    {Op::kSubw, "subw", 0x4000003B, kF7, kNone, "dst", kAlu},
    {Op::kSllw, "sllw", 0x0000103B, kF7, kNone, "dst", kAlu},
    {Op::kSrlw, "srlw", 0x0000503B, kF7, kNone, "dst", kAlu},
    {Op::kSraw, "sraw", 0x4000503B, kF7, kNone, "dst", kAlu},
    {Op::kEcall, "ecall", 0x00000073, kAll, kNone, "", kSystem},
    {Op::kEbreak, "ebreak", 0x00100073, kAll, kNone, "", kSystem},
    {Op::kMul, "mul", 0x02000033, kF7, kNone, "dst", kMul},
    {Op::kMulh, "mulh", 0x02001033, kF7, kNone, "dst", kMul},
    {Op::kMulhu, "mulhu", 0x02003033, kF7, kNone, "dst", kMul},
    {Op::kDiv, "div", 0x02004033, kF7, kNone, "dst", kDiv},
    {Op::kDivu, "divu", 0x02005033, kF7, kNone, "dst", kDiv},
    {Op::kRem, "rem", 0x02006033, kF7, kNone, "dst", kDiv},
    {Op::kRemu, "remu", 0x02007033, kF7, kNone, "dst", kDiv},
    {Op::kMulw, "mulw", 0x0200003B, kF7, kNone, "dst", kMul},
    {Op::kDivw, "divw", 0x0200403B, kF7, kNone, "dst", kDiv},
    {Op::kRemw, "remw", 0x0200603B, kF7, kNone, "dst", kDiv},
    {Op::kFld, "fld", 0x00003007, kF3, kI, "Dm", kLoad},
    {Op::kFsd, "fsd", 0x00003027, kF3, kS, "Tm", kStore},
    {Op::kFaddD, "fadd.d", 0x02007053, kF7, kNone, "DST", kFpu},
    {Op::kFsubD, "fsub.d", 0x0A007053, kF7, kNone, "DST", kFpu},
    {Op::kFmulD, "fmul.d", 0x12007053, kF7, kNone, "DST", kFpu},
    {Op::kFdivD, "fdiv.d", 0x1A007053, kF7, kNone, "DST", kFpu},
    {Op::kFsqrtD, "fsqrt.d", 0x5A007053, kF12, kNone, "DS", kFpu},
    {Op::kFeqD, "feq.d", 0xA2002053, kF7, kNone, "dST", kFpu},
    {Op::kFltD, "flt.d", 0xA2001053, kF7, kNone, "dST", kFpu},
    {Op::kFleD, "fle.d", 0xA2000053, kF7, kNone, "dST", kFpu},
    {Op::kFcvtLD, "fcvt.l.d", 0xC2201053, kF12, kNone, "dS", kFpu},
    {Op::kFcvtDL, "fcvt.d.l", 0xD2207053, kF12, kNone, "Ds", kFpu},
    {Op::kFmvXD, "fmv.x.d", 0xE2000053, kF12, kNone, "dS", kFpu},
    {Op::kFmvDX, "fmv.d.x", 0xF2000053, kF12, kNone, "Ds", kFpu},
    {Op::kFsgnjD, "fsgnj.d", 0x22000053, kF7, kNone, "DST", kFpu},
    {Op::kCpop, "cpop", 0x60201013, kF12, kNone, "ds", kAlu},
}};

constexpr std::uint32_t kRd = 0x00000F80u;
constexpr std::uint32_t kRs1 = 0x000F8000u;
constexpr std::uint32_t kRs2 = 0x01F00000u;

constexpr std::uint32_t imm_bits(ImmFormat f) {
  switch (f) {
    case kNone: return 0;
    case kI: return 0xFFF00000u;
    case kS: case kB: return 0xFE000F80u;
    case kU: case kJ: return 0xFFFFF000u;
    case kShamt6: return 0x03F00000u;
    case kShamt5: return 0x01F00000u;
  }
  return 0;
}

// The register fields a row's operands fill: those neither its mask nor
// its immediate covers.
constexpr std::uint32_t register_bits(const OpInfo& r) {
  const std::uint32_t taken = r.mask | imm_bits(r.imm);
  std::uint32_t out = 0;
  for (const std::uint32_t f : {kRd, kRs1, kRs2})
    if ((taken & f) == 0) out |= f;
  return out;
}

// Every bit is fixed, immediate or a whole register field, and the
// assembler's operand letters fill exactly the fields that are free.
constexpr bool well_formed(const OpInfo& r) {
  const std::string_view ops = r.operands;
  const auto names = [&](std::string_view letters) {
    return ops.find_first_of(letters) != std::string_view::npos;
  };
  const std::uint32_t regs = register_bits(r);
  return (r.match & ~r.mask) == 0 && (r.mask & imm_bits(r.imm)) == 0 &&
         (r.mask | imm_bits(r.imm) | regs) == kAll &&
         names("dD") == ((regs & kRd) != 0) &&
         names("sSm") == ((regs & kRs1) != 0) &&
         names("tT") == ((regs & kRs2) != 0) &&
         names("iuml") == (r.imm != kNone);
}

constexpr bool rows_in_op_order_and_well_formed() {
  for (std::size_t i = 0; i < kTable.size(); ++i)
    if (kTable[i].op != static_cast<Op>(i + 1) || !well_formed(kTable[i]))
      return false;
  return true;
}

// Two rows overlap when they agree on every bit both fix.
constexpr bool no_word_matches_two_rows() {
  for (std::size_t i = 0; i < kTable.size(); ++i)
    for (std::size_t j = 0; j < i; ++j)
      if (((kTable[i].match ^ kTable[j].match) & kTable[i].mask &
           kTable[j].mask) == 0)
        return false;
  return true;
}

static_assert(kTable.size() == static_cast<std::size_t>(Op::kCpop));
static_assert(rows_in_op_order_and_well_formed());
static_assert(no_word_matches_two_rows());

const OpInfo* row(Op op) {
  const auto i = static_cast<std::size_t>(op);
  return i >= 1 && i <= kTable.size() ? &kTable[i - 1] : nullptr;
}

std::uint32_t field(std::uint32_t value, int hi, int lo) {
  return (value >> lo) & ((1u << (hi - lo + 1)) - 1u);
}

// The low `bits` bits of `u`, sign-extended.
std::int64_t sext(std::uint32_t u, int bits) {
  return static_cast<std::int32_t>(u << (32 - bits)) >> (32 - bits);
}

std::int64_t decode_imm(std::uint32_t w, ImmFormat f) {
  switch (f) {
    case kNone: return 0;
    case kI: return sext(field(w, 31, 20), 12);
    case kS: return sext(field(w, 31, 25) << 5 | field(w, 11, 7), 12);
    case kB:
      return sext(field(w, 31, 31) << 12 | field(w, 7, 7) << 11 |
                      field(w, 30, 25) << 5 | field(w, 11, 8) << 1,
                  13);
    case kU: return sext(w & 0xFFFFF000u, 32);
    case kJ:
      return sext(field(w, 31, 31) << 20 | field(w, 19, 12) << 12 |
                      field(w, 20, 20) << 11 | field(w, 30, 21) << 1,
                  21);
    case kShamt6: return field(w, 25, 20);
    case kShamt5: return field(w, 24, 20);
  }
  return 0;
}

// The immediate's bits of the word; throws when `imm` does not fit.
std::uint32_t encode_imm(ImmFormat f, std::int64_t imm) {
  const auto check = [imm](std::int64_t lo, std::int64_t hi,
                           std::int64_t step, const char* what) {
    if (imm < lo || imm > hi || imm % step != 0)
      throw std::invalid_argument(std::string("encode: ") + what +
                                  " immediate out of range");
  };
  const auto u = static_cast<std::uint32_t>(imm);
  switch (f) {
    case kNone: return 0;
    case kI: check(-2048, 2047, 1, "I"); return field(u, 11, 0) << 20;
    case kS:
      check(-2048, 2047, 1, "S");
      return field(u, 11, 5) << 25 | field(u, 4, 0) << 7;
    case kB:
      check(-4096, 4094, 2, "B");
      return field(u, 12, 12) << 31 | field(u, 10, 5) << 25 |
             field(u, 4, 1) << 8 | field(u, 11, 11) << 7;
    case kU: check(INT32_MIN, INT32_MAX, 4096, "U"); return u;
    case kJ:
      check(-(1 << 20), (1 << 20) - 2, 2, "J");
      return field(u, 20, 20) << 31 | field(u, 10, 1) << 21 |
             field(u, 11, 11) << 20 | field(u, 19, 12) << 12;
    case kShamt6: check(0, 63, 1, "shift"); return u << 20;
    case kShamt5: check(0, 31, 1, "shift"); return u << 20;
  }
  return 0;
}

// An ABI name, or `prefix` and 0-31 in plain decimal: "x7" and "f31", not
// "x07", "x+7" or "x7a".
std::optional<int> parse_register(std::string_view name,
                                  const std::array<std::string_view, 32>& abi,
                                  char prefix) {
  for (int i = 0; i < 32; ++i)
    if (name == abi[static_cast<std::size_t>(i)]) return i;
  if (name.size() < 2 || name.size() > 3 || name[0] != prefix ||
      (name[1] == '0' && name.size() > 2))
    return std::nullopt;
  int n = 0;
  for (const char c : name.substr(1)) {
    if (c < '0' || c > '9') return std::nullopt;
    n = n * 10 + (c - '0');
  }
  if (n < 32) return n;
  return std::nullopt;
}

}  // namespace

std::span<const OpInfo> op_table() { return kTable; }

std::uint32_t encode(const Instruction& instr) {
  const OpInfo* r = row(instr.op);
  if (!r) throw std::invalid_argument("encode: invalid op");
  for (const int reg : {instr.rd, instr.rs1, instr.rs2})
    if (reg < 0 || reg > 31)
      throw std::invalid_argument("encode: register out of range");
  const std::uint32_t regs = static_cast<std::uint32_t>(instr.rd) << 7 |
                             static_cast<std::uint32_t>(instr.rs1) << 15 |
                             static_cast<std::uint32_t>(instr.rs2) << 20;
  return r->match | encode_imm(r->imm, instr.imm) | (regs & register_bits(*r));
}

Instruction decode(std::uint32_t word) {
  Instruction out;
  out.raw = word;
  out.rd = static_cast<int>(field(word, 11, 7));
  out.rs1 = static_cast<int>(field(word, 19, 15));
  out.rs2 = static_cast<int>(field(word, 24, 20));
  for (const OpInfo& r : kTable) {
    if ((word & r.mask) != r.match) continue;
    out.op = r.op;
    out.imm = decode_imm(word, r.imm);
    break;
  }
  return out;
}

OpClass class_of(Op op) {
  const OpInfo* r = row(op);
  return r ? r->cls : kAlu;
}

std::optional<int> parse_int_register(const std::string& name) {
  static constexpr std::array<std::string_view, 32> kAbi = {
      "zero", "ra", "sp", "gp", "tp",  "t0",  "t1", "t2",
      "s0",   "s1", "a0", "a1", "a2",  "a3",  "a4", "a5",
      "a6",   "a7", "s2", "s3", "s4",  "s5",  "s6", "s7",
      "s8",   "s9", "s10", "s11", "t3", "t4", "t5", "t6"};
  if (name == "fp") return 8;
  return parse_register(name, kAbi, 'x');
}

std::optional<int> parse_fp_register(const std::string& name) {
  static constexpr std::array<std::string_view, 32> kAbi = {
      "ft0", "ft1", "ft2",  "ft3",  "ft4", "ft5", "ft6",  "ft7",
      "fs0", "fs1", "fa0",  "fa1",  "fa2", "fa3", "fa4",  "fa5",
      "fa6", "fa7", "fs2",  "fs3",  "fs4", "fs5", "fs6",  "fs7",
      "fs8", "fs9", "fs10", "fs11", "ft8", "ft9", "ft10", "ft11"};
  return parse_register(name, kAbi, 'f');
}

}  // namespace cryo::riscv
