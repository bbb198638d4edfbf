#include "riscv/cpu.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cryo::riscv {
namespace {

// Publishes one run's performance-counter deltas into the process-wide
// registry, so ISS activity shows up next to SPICE/STA metrics in every
// BenchReport snapshot.
void publish_perf_delta(const Perf& before, const Perf& after) {
  static obs::Counter& instructions =
      obs::registry().counter("riscv.instructions");
  static obs::Counter& cycles = obs::registry().counter("riscv.cycles");
  static obs::Counter& stalls = obs::registry().counter("riscv.stall_cycles");
  static obs::Counter& l1i = obs::registry().counter("riscv.l1i_misses");
  static obs::Counter& l1d = obs::registry().counter("riscv.l1d_misses");
  static obs::Counter& l2 = obs::registry().counter("riscv.l2_misses");
  static obs::Counter& runs = obs::registry().counter("riscv.runs");
  instructions.add(after.instructions - before.instructions);
  cycles.add(after.cycles - before.cycles);
  stalls.add(after.stall_cycles - before.stall_cycles);
  l1i.add(after.l1i_misses - before.l1i_misses);
  l1d.add(after.l1d_misses - before.l1d_misses);
  l2.add(after.l2_misses - before.l2_misses);
  runs.add(1);
}

}  // namespace
namespace {

double bits_to_double(std::uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

std::uint64_t double_to_bits(double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

std::int64_t sext32(std::uint64_t v) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(v));
}

// fcvt.l.d (round toward zero) saturates: NaN and anything >= 2^63 give
// INT64_MAX, anything <= -2^63 gives INT64_MIN.
std::int64_t fcvt_l_d(double d) {
  constexpr double kTwo63 = 9223372036854775808.0;
  if (std::isnan(d) || d >= kTwo63) return INT64_MAX;
  if (d <= -kTwo63) return INT64_MIN;
  return static_cast<std::int64_t>(std::trunc(d));
}

constexpr std::size_t kDecodedEntries = 1024;

}  // namespace

Cpu::Cpu(CpuConfig config)
    : cfg_(config), l1i_(config.l1i), l1d_(config.l1d), l2_(config.l2) {
  const Instruction zero = decode(0);
  decoded_.assign(kDecodedEntries, Decoded{zero, class_of(zero.op)});
}

void Cpu::load_program(const Program& program) {
  for (std::size_t i = 0; i < program.words.size(); ++i)
    mem_.write32(program.base + i * 4, program.words[i]);
}

double Cpu::freg(int index) const {
  return bits_to_double(fregs_[static_cast<std::size_t>(index)]);
}

void Cpu::set_freg(int index, double value) {
  fregs_[static_cast<std::size_t>(index)] = double_to_bits(value);
}

void Cpu::reset_perf() {
  perf_ = Perf{};
  l1i_.reset_stats();
  l1d_.reset_stats();
  l2_.reset_stats();
  ready_at_.fill(0);
}

void Cpu::l1_miss(std::uint64_t& l1_misses, std::uint64_t addr) {
  ++l1_misses;
  if (l2_.access(addr)) {
    perf_.cycles += static_cast<std::uint64_t>(cfg_.l2_hit_penalty);
    perf_.stall_cycles += static_cast<std::uint64_t>(cfg_.l2_hit_penalty);
  } else {
    ++perf_.l2_misses;
    perf_.cycles += static_cast<std::uint64_t>(cfg_.mem_penalty);
    perf_.stall_cycles += static_cast<std::uint64_t>(cfg_.mem_penalty);
  }
}

Cpu::RunResult Cpu::run(std::uint64_t entry, std::uint64_t max_instructions) {
  OBS_SPAN("riscv.run");
  const Perf perf_before = perf_;  // perf_ accumulates across run() calls
  pc_ = entry;
  RunResult result;
  regs_[0] = 0;

  auto wait_for = [&](int reg_index) {
    const std::uint64_t ready = ready_at_[static_cast<std::size_t>(reg_index)];
    if (ready > perf_.cycles) {
      perf_.stall_cycles += ready - perf_.cycles;
      perf_.cycles = ready;
    }
  };

  while (result.instructions < max_instructions) {
    if (!l1i_.access(pc_)) l1_miss(perf_.l1i_misses, pc_);
    const std::uint32_t word = mem_.read32(pc_);
    Decoded& memo = decoded_[(pc_ >> 2) & (kDecodedEntries - 1)];
    if (memo.instr.raw != word) {
      memo.instr = decode(word);
      memo.cls = class_of(memo.instr.op);
    }
    const Instruction& instr = memo.instr;
    if (instr.op == Op::kInvalid)
      throw std::runtime_error("cpu: illegal instruction at pc=" +
                               std::to_string(pc_));
    if (instr.op == Op::kCpop && !cfg_.has_zbb)
      throw std::runtime_error(
          "cpu: cpop executed but Zbb is not enabled (pc=" +
          std::to_string(pc_) + ")");

    ++perf_.instructions;
    ++perf_.cycles;
    ++result.instructions;

    std::uint64_t next_pc = pc_ + 4;
    const auto rs1 = static_cast<std::size_t>(instr.rs1);
    const auto rs2 = static_cast<std::size_t>(instr.rs2);
    const auto rd = static_cast<std::size_t>(instr.rd);
    const std::uint64_t a = regs_[rs1];
    const std::uint64_t b = regs_[rs2];
    const auto sa = static_cast<std::int64_t>(a);
    const auto sb = static_cast<std::int64_t>(b);
    const std::int64_t imm = instr.imm;

    auto set_rd = [&](std::uint64_t v) {
      if (rd != 0) regs_[rd] = v;
    };
    auto mark_ready = [&](int reg_index, int latency) {
      ready_at_[static_cast<std::size_t>(reg_index)] =
          perf_.cycles + static_cast<std::uint64_t>(latency);
    };

    const OpClass cls = memo.cls;
    // Source interlocks.
    switch (cls) {
      case OpClass::kFpu:
        if (instr.op == Op::kFcvtDL || instr.op == Op::kFmvDX) {
          wait_for(static_cast<int>(rs1));
        } else {
          wait_for(32 + static_cast<int>(rs1));
          wait_for(32 + static_cast<int>(rs2));
        }
        break;
      case OpClass::kStore:
        wait_for(static_cast<int>(rs1));
        if (instr.op == Op::kFsd)
          wait_for(32 + static_cast<int>(rs2));
        else
          wait_for(static_cast<int>(rs2));
        break;
      case OpClass::kLoad:
        wait_for(static_cast<int>(rs1));
        break;
      default:
        wait_for(static_cast<int>(rs1));
        wait_for(static_cast<int>(rs2));
        break;
    }

    switch (instr.op) {
      case Op::kLui: set_rd(static_cast<std::uint64_t>(imm)); break;
      case Op::kAuipc: set_rd(pc_ + static_cast<std::uint64_t>(imm)); break;
      case Op::kJal:
        set_rd(pc_ + 4);
        next_pc = pc_ + static_cast<std::uint64_t>(imm);
        ++perf_.jumps;
        perf_.cycles += static_cast<std::uint64_t>(cfg_.branch_taken_penalty);
        break;
      case Op::kJalr:
        set_rd(pc_ + 4);
        next_pc = (a + static_cast<std::uint64_t>(imm)) & ~1ull;
        ++perf_.jumps;
        perf_.cycles += static_cast<std::uint64_t>(cfg_.branch_taken_penalty);
        break;
      case Op::kBeq: case Op::kBne: case Op::kBlt: case Op::kBge:
      case Op::kBltu: case Op::kBgeu: {
        bool taken = false;
        switch (instr.op) {
          case Op::kBeq: taken = a == b; break;
          case Op::kBne: taken = a != b; break;
          case Op::kBlt: taken = sa < sb; break;
          case Op::kBge: taken = sa >= sb; break;
          case Op::kBltu: taken = a < b; break;
          default: taken = a >= b; break;
        }
        ++perf_.branches;
        if (taken) {
          ++perf_.taken_branches;
          next_pc = pc_ + static_cast<std::uint64_t>(imm);
          perf_.cycles +=
              static_cast<std::uint64_t>(cfg_.branch_taken_penalty);
        }
        break;
      }
      case Op::kLb: case Op::kLh: case Op::kLw: case Op::kLd:
      case Op::kLbu: case Op::kLhu: case Op::kLwu: {
        const std::uint64_t addr = a + static_cast<std::uint64_t>(imm);
        if (!l1d_.access(addr)) l1_miss(perf_.l1d_misses, addr);
        ++perf_.loads;
        std::uint64_t v = 0;
        switch (instr.op) {
          case Op::kLb:
            v = static_cast<std::uint64_t>(
                static_cast<std::int8_t>(mem_.read8(addr)));
            break;
          case Op::kLh:
            v = static_cast<std::uint64_t>(static_cast<std::int16_t>(
                mem_.read(addr, 2)));
            break;
          case Op::kLw:
            v = static_cast<std::uint64_t>(static_cast<std::int32_t>(
                mem_.read32(addr)));
            break;
          case Op::kLd: v = mem_.read64(addr); break;
          case Op::kLbu: v = mem_.read8(addr); break;
          case Op::kLhu: v = mem_.read(addr, 2); break;
          default: v = mem_.read32(addr); break;
        }
        set_rd(v);
        mark_ready(static_cast<int>(rd), cfg_.load_use_delay + 1);
        break;
      }
      case Op::kFld: {
        const std::uint64_t addr = a + static_cast<std::uint64_t>(imm);
        if (!l1d_.access(addr)) l1_miss(perf_.l1d_misses, addr);
        ++perf_.loads;
        fregs_[rd] = mem_.read64(addr);
        mark_ready(32 + static_cast<int>(rd), cfg_.load_use_delay + 1);
        break;
      }
      case Op::kSb: case Op::kSh: case Op::kSw: case Op::kSd: {
        const std::uint64_t addr = a + static_cast<std::uint64_t>(imm);
        if (!l1d_.access(addr)) l1_miss(perf_.l1d_misses, addr);
        ++perf_.stores;
        const int bytes = instr.op == Op::kSb   ? 1
                          : instr.op == Op::kSh ? 2
                          : instr.op == Op::kSw ? 4
                                                : 8;
        mem_.write(addr, b, bytes);
        break;
      }
      case Op::kFsd: {
        const std::uint64_t addr = a + static_cast<std::uint64_t>(imm);
        if (!l1d_.access(addr)) l1_miss(perf_.l1d_misses, addr);
        ++perf_.stores;
        mem_.write64(addr, fregs_[rs2]);
        break;
      }
      case Op::kAddi: set_rd(a + static_cast<std::uint64_t>(imm)); break;
      case Op::kSlti: set_rd(sa < imm ? 1 : 0); break;
      case Op::kSltiu:
        set_rd(a < static_cast<std::uint64_t>(imm) ? 1 : 0);
        break;
      case Op::kXori: set_rd(a ^ static_cast<std::uint64_t>(imm)); break;
      case Op::kOri: set_rd(a | static_cast<std::uint64_t>(imm)); break;
      case Op::kAndi: set_rd(a & static_cast<std::uint64_t>(imm)); break;
      case Op::kSlli: set_rd(a << (imm & 63)); break;
      case Op::kSrli: set_rd(a >> (imm & 63)); break;
      case Op::kSrai:
        set_rd(static_cast<std::uint64_t>(sa >> (imm & 63)));
        break;
      case Op::kAddiw:
        set_rd(static_cast<std::uint64_t>(
            sext32(a + static_cast<std::uint64_t>(imm))));
        break;
      case Op::kSlliw:
        set_rd(static_cast<std::uint64_t>(sext32(a << (imm & 31))));
        break;
      case Op::kSrliw:
        set_rd(static_cast<std::uint64_t>(
            sext32(static_cast<std::uint32_t>(a) >> (imm & 31))));
        break;
      case Op::kSraiw:
        set_rd(static_cast<std::uint64_t>(static_cast<std::int64_t>(
            static_cast<std::int32_t>(a) >> (imm & 31))));
        break;
      case Op::kAdd: set_rd(a + b); break;
      case Op::kSub: set_rd(a - b); break;
      case Op::kSll: set_rd(a << (b & 63)); break;
      case Op::kSlt: set_rd(sa < sb ? 1 : 0); break;
      case Op::kSltu: set_rd(a < b ? 1 : 0); break;
      case Op::kXor: set_rd(a ^ b); break;
      case Op::kSrl: set_rd(a >> (b & 63)); break;
      case Op::kSra: set_rd(static_cast<std::uint64_t>(sa >> (b & 63))); break;
      case Op::kOr: set_rd(a | b); break;
      case Op::kAnd: set_rd(a & b); break;
      case Op::kAddw:
        set_rd(static_cast<std::uint64_t>(sext32(a + b)));
        break;
      case Op::kSubw:
        set_rd(static_cast<std::uint64_t>(sext32(a - b)));
        break;
      case Op::kSllw:
        set_rd(static_cast<std::uint64_t>(sext32(a << (b & 31))));
        break;
      case Op::kSrlw:
        set_rd(static_cast<std::uint64_t>(
            sext32(static_cast<std::uint32_t>(a) >> (b & 31))));
        break;
      case Op::kSraw:
        set_rd(static_cast<std::uint64_t>(static_cast<std::int64_t>(
            static_cast<std::int32_t>(a) >> (b & 31))));
        break;
      case Op::kMul:
        set_rd(a * b);
        mark_ready(static_cast<int>(rd), cfg_.mul_latency);
        break;
      case Op::kMulh: {
        const __int128 p = static_cast<__int128>(sa) * sb;
        set_rd(static_cast<std::uint64_t>(p >> 64));
        mark_ready(static_cast<int>(rd), cfg_.mul_latency);
        break;
      }
      case Op::kMulhu: {
        const unsigned __int128 p =
            static_cast<unsigned __int128>(a) * b;
        set_rd(static_cast<std::uint64_t>(p >> 64));
        mark_ready(static_cast<int>(rd), cfg_.mul_latency);
        break;
      }
      case Op::kMulw:
        set_rd(static_cast<std::uint64_t>(sext32(a * b)));
        mark_ready(static_cast<int>(rd), cfg_.mul_latency);
        break;
      // Signed overflow (INT_MIN / -1) gives quotient = dividend and
      // remainder = 0, as the spec says; sb == -1 is negation throughout.
      case Op::kDiv:
        set_rd(b == 0    ? ~0ull
               : sb == -1 ? 0 - a
                          : static_cast<std::uint64_t>(sa / sb));
        perf_.cycles += static_cast<std::uint64_t>(cfg_.div_latency - 1);
        break;
      case Op::kDivu:
        set_rd(b == 0 ? ~0ull : a / b);
        perf_.cycles += static_cast<std::uint64_t>(cfg_.div_latency - 1);
        break;
      case Op::kRem:
        set_rd(b == 0    ? a
               : sb == -1 ? 0
                          : static_cast<std::uint64_t>(sa % sb));
        perf_.cycles += static_cast<std::uint64_t>(cfg_.div_latency - 1);
        break;
      case Op::kRemu:
        set_rd(b == 0 ? a : a % b);
        perf_.cycles += static_cast<std::uint64_t>(cfg_.div_latency - 1);
        break;
      case Op::kDivw:
        set_rd(static_cast<std::uint64_t>(sext32(
            static_cast<std::uint32_t>(b) == 0 ? ~0u
            : static_cast<std::int32_t>(b) == -1
                ? 0u - static_cast<std::uint32_t>(a)
                : static_cast<std::uint32_t>(static_cast<std::int32_t>(a) /
                                             static_cast<std::int32_t>(b)))));
        perf_.cycles += static_cast<std::uint64_t>(cfg_.div_latency - 1);
        break;
      case Op::kRemw:
        set_rd(static_cast<std::uint64_t>(sext32(
            static_cast<std::uint32_t>(b) == 0 ? a
            : static_cast<std::int32_t>(b) == -1
                ? 0u
                : static_cast<std::uint32_t>(static_cast<std::int32_t>(a) %
                                             static_cast<std::int32_t>(b)))));
        perf_.cycles += static_cast<std::uint64_t>(cfg_.div_latency - 1);
        break;
      case Op::kFaddD:
        set_freg(static_cast<int>(rd),
                 bits_to_double(fregs_[rs1]) + bits_to_double(fregs_[rs2]));
        mark_ready(32 + static_cast<int>(rd), cfg_.fpu_latency);
        break;
      case Op::kFsubD:
        set_freg(static_cast<int>(rd),
                 bits_to_double(fregs_[rs1]) - bits_to_double(fregs_[rs2]));
        mark_ready(32 + static_cast<int>(rd), cfg_.fpu_latency);
        break;
      case Op::kFmulD:
        set_freg(static_cast<int>(rd),
                 bits_to_double(fregs_[rs1]) * bits_to_double(fregs_[rs2]));
        mark_ready(32 + static_cast<int>(rd), cfg_.fpu_latency);
        break;
      case Op::kFdivD:
        set_freg(static_cast<int>(rd),
                 bits_to_double(fregs_[rs1]) / bits_to_double(fregs_[rs2]));
        perf_.cycles += static_cast<std::uint64_t>(2 * cfg_.fpu_latency);
        break;
      case Op::kFsqrtD:
        set_freg(static_cast<int>(rd),
                 std::sqrt(bits_to_double(fregs_[rs1])));
        perf_.cycles += static_cast<std::uint64_t>(3 * cfg_.fpu_latency);
        break;
      case Op::kFeqD:
        set_rd(bits_to_double(fregs_[rs1]) == bits_to_double(fregs_[rs2])
                   ? 1 : 0);
        break;
      case Op::kFltD:
        set_rd(bits_to_double(fregs_[rs1]) < bits_to_double(fregs_[rs2])
                   ? 1 : 0);
        break;
      case Op::kFleD:
        set_rd(bits_to_double(fregs_[rs1]) <= bits_to_double(fregs_[rs2])
                   ? 1 : 0);
        break;
      case Op::kFcvtLD:
        set_rd(static_cast<std::uint64_t>(
            fcvt_l_d(bits_to_double(fregs_[rs1]))));
        mark_ready(static_cast<int>(rd), cfg_.fpu_latency);
        break;
      case Op::kFcvtDL:
        set_freg(static_cast<int>(rd), static_cast<double>(sa));
        mark_ready(32 + static_cast<int>(rd), cfg_.fpu_latency);
        break;
      case Op::kFmvXD: set_rd(fregs_[rs1]); break;
      case Op::kFmvDX: fregs_[rd] = a; break;
      case Op::kFsgnjD: {
        const std::uint64_t mag = fregs_[rs1] & ~(1ull << 63);
        const std::uint64_t sign = fregs_[rs2] & (1ull << 63);
        fregs_[rd] = mag | sign;
        break;
      }
      case Op::kCpop:
        set_rd(static_cast<std::uint64_t>(__builtin_popcountll(a)));
        break;
      case Op::kEcall:
      case Op::kEbreak:
        result.halted = true;
        result.cycles = perf_.cycles;
        publish_perf_delta(perf_before, perf_);
        return result;
      case Op::kInvalid:
        break;
    }

    switch (cls) {
      case OpClass::kAlu: ++perf_.alu_ops; break;
      case OpClass::kMul: ++perf_.mul_ops; break;
      case OpClass::kDiv: ++perf_.div_ops; break;
      case OpClass::kFpu: ++perf_.fpu_ops; break;
      default: break;
    }
    if (trace_) {
      TraceEntry e;
      e.pc = pc_;
      e.word = word;
      e.rs1_value = a;
      e.rs2_value = b;
      e.wb_value = rd != 0 ? regs_[rd] : 0;
      e.cycle = perf_.cycles;
      if (cls == OpClass::kLoad || cls == OpClass::kStore) {
        e.mem_addr = a + static_cast<std::uint64_t>(imm);
        e.is_load = cls == OpClass::kLoad;
        e.is_store = cls == OpClass::kStore;
      }
      e.branch_taken = cls == OpClass::kBranch && next_pc != pc_ + 4;
      trace_->push_back(e);
    }
    pc_ = next_pc;
  }
  result.cycles = perf_.cycles;
  publish_perf_delta(perf_before, perf_);
  return result;
}

}  // namespace cryo::riscv
