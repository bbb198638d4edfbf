// RV64IMD(+Zbb) instruction-set simulator with a five-stage in-order
// pipeline timing model and a two-level cache hierarchy — the stand-in for
// the paper's gate-level simulation of the Rocket core running the
// classification kernels.
//
// Timing model (cycles accumulated per retired instruction):
//   * 1 base cycle (in-order single issue),
//   * instruction fetch through L1I; misses stall for the L2/memory
//     penalty (one fetch per 32-bit word, line-grained hits),
//   * loads/stores through L1D with the same penalties; load results are
//     available one cycle later (load-use interlock),
//   * multiplies are pipelined with `mul_latency`; divides block;
//     FP ops are pipelined with `fpu_latency`,
//   * taken branches flush the front end (`branch_taken_penalty`),
//   * `cpop` retires in one cycle when Zbb is enabled, and traps as an
//     illegal instruction otherwise (the paper's RISC-V lacks popcount).
//
// Fast paths, none of which moves a count: memory goes through Memory's
// page cache; decode() and class_of() are memoized per pc in a
// direct-mapped table whose entries are checked against the word just
// fetched, so a store into code or a host write through memory() needs
// no invalidation; the caches index by shift and mask and hit a repeat of
// the previous access's line without a scan. A copied Cpu owns its own
// memory.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "riscv/assembler.hpp"
#include "riscv/cache.hpp"
#include "riscv/isa.hpp"
#include "riscv/memory.hpp"

namespace cryo::riscv {

struct CpuConfig {
  CacheConfig l1i{16 * 1024, 4, 64};
  CacheConfig l1d{16 * 1024, 4, 64};
  CacheConfig l2{512 * 1024, 8, 64};
  int l2_hit_penalty = 12;  // extra cycles: L1 miss, L2 hit
  int mem_penalty = 80;     // extra cycles: L2 miss
  int branch_taken_penalty = 2;
  int mul_latency = 3;
  int div_latency = 16;
  int fpu_latency = 4;
  int load_use_delay = 1;
  bool has_zbb = false;
};

struct Perf {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t alu_ops = 0;
  std::uint64_t mul_ops = 0;
  std::uint64_t div_ops = 0;
  std::uint64_t fpu_ops = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t branches = 0;
  std::uint64_t taken_branches = 0;
  std::uint64_t jumps = 0;
  std::uint64_t l1i_misses = 0;
  std::uint64_t l1d_misses = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t stall_cycles = 0;

  double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
  }
};

// One retired instruction as emitted to an attached trace sink: the raw
// material gate-level activity extraction turns into a workload vector
// deck (cryo::gatesim). Values are captured at retire, so the entry
// carries both the fetch side (pc, encoding) and the datapath side
// (operands, writeback value, memory address). The encoding sits beside
// the flags so an entry packs into 56 bytes, not 64.
struct TraceEntry {
  std::uint64_t pc = 0;
  std::uint64_t rs1_value = 0;
  std::uint64_t rs2_value = 0;
  std::uint64_t wb_value = 0;   // rd after execution (0 for x0)
  std::uint64_t mem_addr = 0;   // load/store effective address
  std::uint64_t cycle = 0;      // perf cycle count at retire
  std::uint32_t word = 0;       // raw 32-bit encoding
  bool is_load = false;
  bool is_store = false;
  bool branch_taken = false;
};
static_assert(sizeof(TraceEntry) == 56);

class Cpu {
 public:
  explicit Cpu(CpuConfig config = {});

  // Attaches (or with nullptr detaches) a retire-trace sink; every
  // retired instruction appends one TraceEntry. The sink must outlive
  // the run() calls it observes.
  void set_trace(std::vector<TraceEntry>* sink) { trace_ = sink; }

  Memory& memory() { return mem_; }
  const Memory& memory() const { return mem_; }

  void load_program(const Program& program);

  std::uint64_t reg(int index) const {
    return regs_[static_cast<std::size_t>(index)];
  }
  void set_reg(int index, std::uint64_t value) {
    if (index != 0) regs_[static_cast<std::size_t>(index)] = value;
  }
  double freg(int index) const;
  void set_freg(int index, double value);

  struct RunResult {
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    bool halted = false;  // hit ebreak/ecall
  };

  // Runs from `entry` until ebreak/ecall or the instruction budget is
  // exhausted. Throws std::runtime_error on illegal instructions.
  RunResult run(std::uint64_t entry, std::uint64_t max_instructions);

  const Perf& perf() const { return perf_; }
  void reset_perf();
  const Cache& l1i() const { return l1i_; }
  const Cache& l1d() const { return l1d_; }
  const Cache& l2() const { return l2_; }

 private:
  // An L1 miss at `addr`: counts it in `l1_misses` and charges the L2
  // hit or memory penalty.
  void l1_miss(std::uint64_t& l1_misses, std::uint64_t addr);

  // One decode memo entry: the decode of `instr.raw`, valid for any pc
  // whose fetched word equals it.
  struct Decoded {
    Instruction instr;
    OpClass cls = OpClass::kSystem;
  };

  CpuConfig cfg_;
  Memory mem_;
  std::array<std::uint64_t, 32> regs_{};
  std::array<std::uint64_t, 32> fregs_{};  // raw IEEE-754 bits
  std::uint64_t pc_ = 0;
  Cache l1i_;
  Cache l1d_;
  Cache l2_;
  Perf perf_;
  // Scoreboard: cycle at which a register's value is ready; FP registers
  // are indices 32..63.
  std::array<std::uint64_t, 64> ready_at_{};
  std::vector<TraceEntry>* trace_ = nullptr;
  std::vector<Decoded> decoded_;  // direct-mapped by pc / 4
};

}  // namespace cryo::riscv
