// RV64 ISA subset: RV64I + M (multiply/divide) + D (double-precision
// loads/stores/arithmetic/compares/conversions) + the Zbb cpop instruction
// (used by the hardware-popcount ablation, paper Sec. VI-C).
//
// Real RISC-V encodings are used throughout so encode/decode can be
// validated against the specification's reference words. Each instruction
// is written once, as one row of op_table(): its mnemonic, the bits its
// encoding fixes (`mask`) and their values (`match`), its immediate format,
// its assembler operands and its timing class. encode, decode, class_of
// and the assembler all read that row.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace cryo::riscv {

enum class Op {
  kInvalid,
  // RV64I
  kLui, kAuipc, kJal, kJalr,
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  kLb, kLh, kLw, kLd, kLbu, kLhu, kLwu,
  kSb, kSh, kSw, kSd,
  kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
  kAddiw, kSlliw, kSrliw, kSraiw,
  kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
  kAddw, kSubw, kSllw, kSrlw, kSraw,
  kEcall, kEbreak,
  // M extension
  kMul, kMulh, kMulhu, kDiv, kDivu, kRem, kRemu, kMulw, kDivw, kRemw,
  // D extension (subset)
  kFld, kFsd,
  kFaddD, kFsubD, kFmulD, kFdivD, kFsqrtD,
  kFeqD, kFltD, kFleD,
  kFcvtLD,   // fcvt.l.d  (double -> int64, rtz)
  kFcvtDL,   // fcvt.d.l  (int64 -> double)
  kFmvXD, kFmvDX, kFsgnjD,
  // Zbb
  kCpop,
};

struct Instruction {
  Op op = Op::kInvalid;
  int rd = 0;
  int rs1 = 0;
  int rs2 = 0;
  std::int64_t imm = 0;
  std::uint32_t raw = 0;
};

// Instruction class used by the timing model and activity extraction.
enum class OpClass { kAlu, kMul, kDiv, kLoad, kStore, kBranch, kJump, kFpu,
                     kSystem };

// Where an instruction's immediate sits: the base formats I/S/B/U/J, the
// 6-bit shift amount of slli/srli/srai and the 5-bit one of the W shifts.
enum class ImmFormat { kNone, kI, kS, kB, kU, kJ, kShamt6, kShamt5 };

// One instruction. A word is this instruction iff (word & mask) == match.
// The mask covers the opcode and funct3/funct6/funct7, plus the rs2, rm or
// funct12 field an instruction fixes (fsqrt, fcvt, fmv, cpop,
// ecall/ebreak); the FP arithmetic rows fix rm too (7 = dynamic, 1 = rtz
// for fcvt.l.d). Every other bit belongs to the immediate or to the rd,
// rs1 and rs2 fields the row uses, so each valid word is the encoding of
// exactly one Instruction.
//
// `operands` is the assembler's operand list, one letter per operand in
// source order: d/s/t an x register into rd/rs1/rs2, D/S/T an f register
// into rd/rs1/rs2, i an immediate, u a 20-bit upper immediate, m a memory
// operand `imm(rs1)`, l a label (pc-relative).
struct OpInfo {
  Op op;
  const char* mnemonic;
  std::uint32_t match;
  std::uint32_t mask;
  ImmFormat imm;
  const char* operands;
  OpClass cls;
};

// Every instruction of the subset, one row per Op after kInvalid, in Op
// order.
std::span<const OpInfo> op_table();

// Encodes to a 32-bit instruction word: the row's match OR'd with the
// operand fields. Throws std::invalid_argument for Op::kInvalid, a
// register outside 0-31 or an immediate its format cannot hold.
std::uint32_t encode(const Instruction& instr);

// Decodes a word. `op` is the row whose mask/match the word satisfies, or
// Op::kInvalid when none does; rd/rs1/rs2 are bits 11:7, 19:15 and 24:20
// whatever the op, and imm is 0 for an op without one.
Instruction decode(std::uint32_t word);

OpClass class_of(Op op);

// Register names: "x0".."x31" and the ABI names ("zero", "ra", "sp",
// "a0", "t1", "s11", "fp", ...); FP "f0".."f31" and "ft0", "fa0", "fs11",
// ... A name is one whole token: no sign, space, leading zero or trailing
// text. Returns nullopt for anything else.
std::optional<int> parse_int_register(const std::string& name);
std::optional<int> parse_fp_register(const std::string& name);

}  // namespace cryo::riscv
