#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <type_traits>

#include "common/rng.hpp"
#include "riscv/cpu.hpp"

namespace cryo::riscv {
namespace {

// --- Encoding ---------------------------------------------------------------

TEST(Encode, GoldenWords) {
  // Reference encodings from the RISC-V specification.
  EXPECT_EQ(encode({Op::kAddi, 1, 0, 0, 5}), 0x00500093u);
  EXPECT_EQ(encode({Op::kAdd, 3, 1, 2, 0}), 0x002081B3u);
  EXPECT_EQ(encode({Op::kLui, 5, 0, 0, 0x12345000}), 0x123452B7u);
  EXPECT_EQ(encode({Op::kLd, 10, 11, 0, 16}), 0x0105B503u);
  EXPECT_EQ(encode({Op::kSd, 0, 2, 8, 24}), 0x00813C23u);
  EXPECT_EQ(encode({Op::kEbreak, 0, 0, 0, 0}), 0x00100073u);
  EXPECT_EQ(encode({Op::kEcall, 0, 0, 0, 0}), 0x00000073u);
  EXPECT_EQ(encode({Op::kMul, 5, 6, 7, 0}), 0x027302B3u);
}

TEST(Encode, RangeChecks) {
  EXPECT_THROW(encode({Op::kAddi, 1, 0, 0, 5000}), std::invalid_argument);
  EXPECT_THROW(encode({Op::kSlli, 1, 1, 0, 70}), std::invalid_argument);
  EXPECT_THROW(encode({Op::kBeq, 0, 1, 2, 3}), std::invalid_argument);
  // Register fields outside 0-31 would spill into the neighbouring field:
  // {kAdd, 32, 1, 2} would otherwise encode `sll x0, x1, x2`.
  EXPECT_THROW(encode({Op::kAdd, 32, 1, 2, 0}), std::invalid_argument);
  EXPECT_THROW(encode({Op::kAdd, 1, -1, 2, 0}), std::invalid_argument);
  EXPECT_THROW(encode({Op::kAdd, 1, 2, 32, 0}), std::invalid_argument);
  EXPECT_THROW(encode({Op::kLd, 1, 40, 0, 8}), std::invalid_argument);
  EXPECT_THROW(encode({Op::kInvalid, 0, 0, 0, 0}), std::invalid_argument);
}

TEST(Decode, RoundTripAllOps) {
  Rng rng(17);
  for (const OpInfo& row : op_table()) {
    const Op op = row.op;
    for (int trial = 0; trial < 8; ++trial) {
      Instruction in;
      in.op = op;
      in.rd = static_cast<int>(rng.uniform_int(0, 31));
      in.rs1 = static_cast<int>(rng.uniform_int(0, 31));
      in.rs2 = static_cast<int>(rng.uniform_int(0, 31));
      switch (op) {
        case Op::kLui: case Op::kAuipc:
          in.imm = rng.uniform_int(-512, 511) << 12;
          break;
        case Op::kJal:
          in.imm = rng.uniform_int(-1000, 1000) * 2;
          break;
        case Op::kBeq: case Op::kBne: case Op::kBlt: case Op::kBge:
        case Op::kBltu: case Op::kBgeu:
          in.imm = rng.uniform_int(-100, 100) * 2;
          break;
        case Op::kSlli: case Op::kSrli: case Op::kSrai:
          in.imm = rng.uniform_int(0, 63);
          break;
        case Op::kSlliw: case Op::kSrliw: case Op::kSraiw:
          in.imm = rng.uniform_int(0, 31);
          break;
        default:
          in.imm = rng.uniform_int(-2048, 2047);
          break;
      }
      const Instruction out = decode(encode(in));
      ASSERT_EQ(out.op, in.op) << static_cast<int>(op);
      const OpClass cls = class_of(op);
      const bool has_rd = cls != OpClass::kBranch && op != Op::kSb &&
                          op != Op::kSh && op != Op::kSw && op != Op::kSd &&
                          op != Op::kFsd && op != Op::kEcall &&
                          op != Op::kEbreak;
      if (has_rd) {
        EXPECT_EQ(out.rd, in.rd);
      }
      const bool has_imm =
          cls == OpClass::kBranch || cls == OpClass::kLoad ||
          cls == OpClass::kStore || op == Op::kAddi || op == Op::kJal ||
          op == Op::kLui || op == Op::kSlli;
      if (has_imm) {
        EXPECT_EQ(out.imm, in.imm) << static_cast<int>(op);
      }
    }
  }
}

// --- Assembler --------------------------------------------------------------

TEST(Assembler, LabelsForwardAndBackward) {
  const auto p = assemble(R"(
    start:
      addi a0, zero, 1
      j end
      addi a0, zero, 2   # skipped
    end:
      ebreak
  )");
  Cpu cpu;
  cpu.load_program(p);
  cpu.run(p.base, 100);
  EXPECT_EQ(cpu.reg(10), 1u);
  EXPECT_EQ(p.symbol("start"), p.base);
  EXPECT_THROW(p.symbol("nope"), std::out_of_range);
}

class LiMaterialization : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(LiMaterialization, LoadsExactValue) {
  const auto p = assemble("li a0, " + std::to_string(GetParam()) + "\nebreak");
  Cpu cpu;
  cpu.load_program(p);
  cpu.run(p.base, 100);
  EXPECT_EQ(static_cast<std::int64_t>(cpu.reg(10)), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Values, LiMaterialization,
    ::testing::Values(0, 1, -1, 2047, -2048, 2048, 65536, -65536,
                      0x7FFFFFFFll, -0x80000000ll, 0x100000000ll,
                      0x5555555555555555ll, -0x5555555555555555ll,
                      0x7FFFFFFFFFFFFFFFll, 0x0101010101010101ll));

TEST(Assembler, SyntaxErrors) {
  EXPECT_THROW(assemble("frobnicate a0, a1"), std::runtime_error);
  EXPECT_THROW(assemble("addi a0, xx, 1"), std::runtime_error);
  EXPECT_THROW(assemble("addi a0, a1"), std::runtime_error);
  EXPECT_THROW(assemble("j nowhere"), std::runtime_error);
  EXPECT_THROW(assemble("addi a0, a1, 99999"), std::runtime_error);
  // A register name is one whole token.
  for (const char* bad :
       {"add x1y, x2, x3", "addi x5abc, a1, 1", "addi x+5, a1, 1",
        "addi x 5, a1, 1", "addi x05, a1, 1", "addi x32, a1, 1",
        "addi x-1, a1, 1", "addi a0 , a1x, 1", "ld a0, 8(a1)x",
        "fadd.d f1.5, fa0, fa1", "fadd.d fa0, f+1, fa1",
        "fadd.d fa0, fa1, f32", "fadd.d fa0, fa1, f01"})
    EXPECT_THROW(assemble(bad), std::runtime_error) << bad;
  EXPECT_NO_THROW(assemble("add x31, x0, x9\nfadd.d f31, f0, f9"));
  // A label is defined once; a .word holds a signed or unsigned 32-bit
  // value, nothing wider.
  const auto message = [](const std::string& source) {
    try {
      assemble(source);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message("a: nop\nb: nop\na: nop\nj a"),
            "assembler line 3: duplicate label 'a' in 'a: nop'");
  EXPECT_EQ(message("x: y: x: nop"),
            "assembler line 1: duplicate label 'x' in 'x: y: x: nop'");
  EXPECT_EQ(message("nop\n.word 0x100000000"),
            "assembler line 2: .word value out of range [-2^31, 2^32-1] in "
            "'.word 0x100000000'");
  EXPECT_EQ(message(".word -5000000000"),
            "assembler line 1: .word value out of range [-2^31, 2^32-1] in "
            "'.word -5000000000'");
  EXPECT_EQ(message(".word -2147483649"),
            "assembler line 1: .word value out of range [-2^31, 2^32-1] in "
            "'.word -2147483649'");
  const Program edges = assemble(".word 0xFFFFFFFF\n.word -2147483648");
  EXPECT_EQ(edges.words, (std::vector<std::uint32_t>{0xFFFFFFFFu, 0x80000000u}));
}

TEST(Assembler, ErrorsNameTheirLine) {
  // Range errors surface in the encoder and undefined labels in pass 2;
  // both still name the statement they came from.
  const auto message = [](const std::string& source) {
    try {
      assemble(source);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message("nop\naddi a0, a1, 99999"),
            "assembler line 2: encode: I immediate out of range in "
            "'addi a0, a1, 99999'");
  EXPECT_EQ(message("nop\nnop\nbeqz a0, far"),
            "assembler line 3: undefined symbol 'far' in 'beqz a0, far'");
}

TEST(Assembler, DataDirectives) {
  const auto p = assemble(R"(
    j code
    data:
      .dword 0x1122334455667788
    code:
      la t0, data
      ld a0, 0(t0)
      ebreak
  )");
  Cpu cpu;
  cpu.load_program(p);
  cpu.run(p.base, 100);
  EXPECT_EQ(cpu.reg(10), 0x1122334455667788ull);
}

// --- Cache model --------------------------------------------------------------

TEST(Cache, HitAfterMiss) {
  Cache c({1024, 2, 64});
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(63));   // same line
  EXPECT_FALSE(c.access(64));  // next line
  EXPECT_EQ(c.misses(), 2u);
  EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, LruEviction) {
  // 2-way, 8 sets of 64 B: addresses 0, 1024, 2048 map to set 0.
  Cache c({1024, 2, 64});
  c.access(0);
  c.access(1024);
  c.access(0);      // touch 0 so 1024 becomes LRU
  c.access(2048);   // evicts 1024
  EXPECT_TRUE(c.access(0));
  EXPECT_FALSE(c.access(1024));
}

TEST(Cache, MissRate) {
  Cache c({1024, 2, 64});
  for (int i = 0; i < 10; ++i) c.access(static_cast<std::uint64_t>(i) * 64);
  EXPECT_GT(c.miss_rate(), 0.9);
  c.reset_stats();
  EXPECT_EQ(c.hits() + c.misses(), 0u);
}

TEST(Cache, RejectsBadConfig) {
  EXPECT_THROW(Cache({0, 2, 64}), std::invalid_argument);
  EXPECT_THROW(Cache({64, 4, 64}), std::invalid_argument);  // zero sets
  EXPECT_THROW(Cache({384, 2, 48}), std::invalid_argument);  // 48 B lines
  EXPECT_THROW(Cache({384, 2, 64}), std::invalid_argument);  // 3 sets
}

// The cache model as it was before shift-and-mask indexing: set and tag
// by division. The oracle for the randomized equivalence test below.
class DivisionCache {
 public:
  explicit DivisionCache(CacheConfig c)
      : cfg_(c),
        sets_(static_cast<std::uint64_t>(c.size_bytes / (c.ways * c.line_bytes))),
        tags_(sets_ * static_cast<std::uint64_t>(c.ways), ~0ull),
        stamps_(tags_.size(), 0) {}

  bool access(std::uint64_t addr) {
    const std::uint64_t line = addr / static_cast<std::uint64_t>(cfg_.line_bytes);
    const std::size_t base =
        static_cast<std::size_t>(line % sets_) * static_cast<std::size_t>(cfg_.ways);
    const std::uint64_t tag = line / sets_;
    ++clock_;
    for (int w = 0; w < cfg_.ways; ++w)
      if (tags_[base + w] == tag) {
        stamps_[base + w] = clock_;
        return true;
      }
    std::size_t victim = base;
    for (int w = 1; w < cfg_.ways; ++w)
      if (stamps_[base + w] < stamps_[victim]) victim = base + w;
    tags_[victim] = tag;
    stamps_[victim] = clock_;
    return false;
  }

 private:
  CacheConfig cfg_;
  std::uint64_t sets_;
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> stamps_;
  std::uint64_t clock_ = 0;
};

TEST(Cache, ShiftMaskMatchesDivisionReference) {
  // The default geometry plus the L1 and L2 sizes ablation_cache sweeps.
  const CacheConfig configs[] = {
      CpuConfig{}.l1d,   CpuConfig{}.l2,    {4 * 1024, 4, 64},
      {64 * 1024, 4, 64}, {128 * 1024, 8, 64}, {2048 * 1024, 8, 64}};
  for (const CacheConfig& cfg : configs) {
    Cache fast(cfg);
    DivisionCache reference(cfg);
    Rng rng(static_cast<std::uint64_t>(cfg.size_bytes));
    const auto span = static_cast<std::uint64_t>(cfg.size_bytes) * 3;
    std::uint64_t addr = 0;
    std::uint64_t misses = 0;
    for (int i = 0; i < 200'000; ++i) {
      // Mostly short strides (spatial reuse), sometimes a jump anywhere in
      // three cache sizes' worth of lines, sometimes a far-away tag.
      const std::uint64_t r = rng.word();
      if (r % 8 == 0)
        addr = rng.word() % span;
      else if (r % 97 == 0)
        addr = rng.word();
      else
        addr += r % 24;
      const bool hit = reference.access(addr);
      ASSERT_EQ(fast.access(addr), hit)
          << cfg.size_bytes << " B, access " << i << " at " << addr;
      misses += !hit;
    }
    EXPECT_EQ(fast.misses(), misses);
    EXPECT_GT(misses, 1000u);  // the stream exercises eviction
  }
}

// --- Execution semantics -------------------------------------------------------

TEST(Cpu, RTypeSemanticsRandomized) {
  Rng rng(23);
  struct Case {
    const char* mnem;
    std::uint64_t (*fn)(std::uint64_t, std::uint64_t);
  };
  const Case cases[] = {
      {"add", [](std::uint64_t a, std::uint64_t b) { return a + b; }},
      {"sub", [](std::uint64_t a, std::uint64_t b) { return a - b; }},
      {"and", [](std::uint64_t a, std::uint64_t b) { return a & b; }},
      {"or", [](std::uint64_t a, std::uint64_t b) { return a | b; }},
      {"xor", [](std::uint64_t a, std::uint64_t b) { return a ^ b; }},
      {"mul", [](std::uint64_t a, std::uint64_t b) { return a * b; }},
      {"sltu",
       [](std::uint64_t a, std::uint64_t b) -> std::uint64_t {
         return a < b ? 1 : 0;
       }},
      {"sll",
       [](std::uint64_t a, std::uint64_t b) { return a << (b & 63); }},
      {"srl",
       [](std::uint64_t a, std::uint64_t b) { return a >> (b & 63); }},
  };
  for (const auto& c : cases) {
    for (int trial = 0; trial < 6; ++trial) {
      const std::uint64_t a = rng.word(), b = rng.word();
      const auto p = assemble(std::string(c.mnem) + " a2, a0, a1\nebreak");
      Cpu cpu;
      cpu.load_program(p);
      cpu.set_reg(10, a);
      cpu.set_reg(11, b);
      cpu.run(p.base, 10);
      EXPECT_EQ(cpu.reg(12), c.fn(a, b)) << c.mnem;
    }
  }
}

TEST(Cpu, LoadStoreAllWidths) {
  const auto p = assemble(R"(
    li t0, 0x20000
    li t1, -2
    sd t1, 0(t0)
    lb a0, 0(t0)
    lbu a1, 0(t0)
    lh a2, 0(t0)
    lhu a3, 0(t0)
    lw a4, 0(t0)
    lwu a5, 0(t0)
    ld a6, 0(t0)
    ebreak
  )");
  Cpu cpu;
  cpu.load_program(p);
  cpu.run(p.base, 100);
  EXPECT_EQ(static_cast<std::int64_t>(cpu.reg(10)), -2);
  EXPECT_EQ(cpu.reg(11), 0xFEu);
  EXPECT_EQ(static_cast<std::int64_t>(cpu.reg(12)), -2);
  EXPECT_EQ(cpu.reg(13), 0xFFFEu);
  EXPECT_EQ(static_cast<std::int64_t>(cpu.reg(14)), -2);
  EXPECT_EQ(cpu.reg(15), 0xFFFFFFFEu);
  EXPECT_EQ(cpu.reg(16), 0xFFFFFFFFFFFFFFFEull);
}

TEST(Cpu, X0IsHardwiredZero) {
  const auto p = assemble("addi x0, x0, 5\nadd a0, x0, x0\nebreak");
  Cpu cpu;
  cpu.load_program(p);
  cpu.run(p.base, 10);
  EXPECT_EQ(cpu.reg(10), 0u);
}

TEST(Cpu, FloatingPointPipeline) {
  const auto p = assemble(R"(
    li t0, 3
    fcvt.d.l fa0, t0
    li t1, 4
    fcvt.d.l fa1, t1
    fmul.d fa2, fa0, fa0
    fmul.d fa3, fa1, fa1
    fadd.d fa4, fa2, fa3
    fsqrt.d fa5, fa4
    fcvt.l.d a0, fa5
    flt.d a1, fa0, fa1
    ebreak
  )");
  Cpu cpu;
  cpu.load_program(p);
  cpu.run(p.base, 100);
  EXPECT_EQ(cpu.reg(10), 5u);  // sqrt(9 + 16)
  EXPECT_EQ(cpu.reg(11), 1u);  // 3 < 4
}

TEST(Cpu, DivisionEdgeCases) {
  const auto p = assemble(R"(
    li a0, 7
    li a1, 0
    div a2, a0, a1
    rem a3, a0, a1
    li a4, -7
    li a5, 2
    div a6, a4, a5
    ebreak
  )");
  Cpu cpu;
  cpu.load_program(p);
  cpu.run(p.base, 100);
  EXPECT_EQ(cpu.reg(12), ~0ull);           // div by zero => -1
  EXPECT_EQ(cpu.reg(13), 7u);              // rem by zero => dividend
  EXPECT_EQ(static_cast<std::int64_t>(cpu.reg(16)), -3);

  // Signed overflow, INT_MIN / -1, where the host's division would trap:
  // the quotient is the dividend and the remainder 0. The W forms divide
  // the low words only, so a divisor whose low word is 0 divides by zero.
  const auto q = assemble(R"(
    li t0, 1
    slli t0, t0, 63    # INT64_MIN
    li t1, -1
    div a0, t0, t1
    rem a1, t0, t1
    li t2, 1
    slli t2, t2, 31    # INT32_MIN in the low word
    divw a2, t2, t1
    remw a3, t2, t1
    li t3, 1
    slli t3, t3, 32
    divw a4, t2, t3
    remw a5, t2, t3
    ebreak
  )");
  Cpu overflow;
  overflow.load_program(q);
  overflow.run(q.base, 100);
  EXPECT_EQ(overflow.reg(10), 1ull << 63);
  EXPECT_EQ(overflow.reg(11), 0u);
  EXPECT_EQ(overflow.reg(12), 0xFFFFFFFF80000000ull);
  EXPECT_EQ(overflow.reg(13), 0u);
  EXPECT_EQ(overflow.reg(14), ~0ull);
  EXPECT_EQ(overflow.reg(15), 0xFFFFFFFF80000000ull);
}

TEST(Cpu, FcvtLdSaturates) {
  // fcvt.l.d rounds toward zero and saturates: NaN and everything at or
  // above 2^63 give INT64_MAX, everything at or below -2^63 INT64_MIN.
  const auto p = assemble("fcvt.l.d a0, fa0\nebreak");
  constexpr double kTwo63 = 9223372036854775808.0;
  const std::pair<double, std::int64_t> cases[] = {
      {std::nan(""), INT64_MAX},
      {INFINITY, INT64_MAX},
      {-INFINITY, INT64_MIN},
      {1e300, INT64_MAX},
      {-1e300, INT64_MIN},
      {9.3e18, INT64_MAX},
      {-9.3e18, INT64_MIN},
      {kTwo63, INT64_MAX},
      {-kTwo63, INT64_MIN},
      {9.2e18, 9'200'000'000'000'000'000},
      {3.7, 3},
      {-3.7, -3}};
  for (const auto& [in, out] : cases) {
    Cpu cpu;
    cpu.load_program(p);
    cpu.set_freg(10, in);
    cpu.run(p.base, 10);
    EXPECT_EQ(static_cast<std::int64_t>(cpu.reg(10)), out) << in;
  }
}

TEST(Cpu, StoreIntoExecutedCodeTakesEffect) {
  // The loop body's addi runs once, then the loop overwrites it with
  // `addi a0, a0, 100`; the decode memo must see the new word.
  const std::uint32_t add100 = encode({Op::kAddi, 10, 10, 0, 100});
  const auto p = assemble(R"(
      li t1, )" + std::to_string(add100) + R"(
      li t2, 2
      li a0, 0
    loop:
    target:
      addi a0, a0, 1
      la t0, target
      sw t1, 0(t0)
      addi t2, t2, -1
      bnez t2, loop
      ebreak
  )");
  Cpu cpu;
  cpu.load_program(p);
  cpu.run(p.base, 100);
  EXPECT_EQ(cpu.reg(10), 101u);
}

TEST(Cpu, HostWriteBetweenRunsTakesEffect) {
  const auto p = assemble("addi a0, a0, 1\nebreak");
  Cpu cpu;
  cpu.load_program(p);
  cpu.run(p.base, 10);
  EXPECT_EQ(cpu.reg(10), 1u);
  cpu.memory().write32(p.base, encode({Op::kAddi, 10, 10, 0, 50}));
  cpu.run(p.base, 10);
  EXPECT_EQ(cpu.reg(10), 51u);
}

TEST(Cpu, CopyOwnsItsMemory) {
  static_assert(std::is_copy_constructible_v<Cpu> &&
                std::is_copy_assignable_v<Cpu>);
  const auto p = assemble("ld a0, 0(a1)\nebreak");
  constexpr std::uint64_t kData = 0x20000;
  Cpu a;
  a.load_program(p);
  a.memory().write64(kData, 7);
  a.set_reg(11, kData);
  a.run(p.base, 10);  // warms a's page cache and decode memo
  ASSERT_EQ(a.reg(10), 7u);

  Cpu b = a;
  b.memory().write64(kData, 9);
  a.memory().write64(kData, 5);
  b.run(p.base, 10);
  a.run(p.base, 10);
  EXPECT_EQ(b.reg(10), 9u);
  EXPECT_EQ(a.reg(10), 5u);

  Cpu c;
  c = b;
  c.memory().write64(kData, 3);
  c.run(p.base, 10);
  EXPECT_EQ(c.reg(10), 3u);
  EXPECT_EQ(b.memory().read64(kData), 9u);
}

// --- Timing model ---------------------------------------------------------------

TEST(Timing, LoadUseStallsOneCycle) {
  const char* dependent = R"(
    li t0, 0x20000
    ld t1, 0(t0)
    addi t2, t1, 1   # uses the load result immediately
    ebreak
  )";
  const char* independent = R"(
    li t0, 0x20000
    ld t1, 0(t0)
    addi t2, t0, 1   # does not use the load result
    ebreak
  )";
  auto cycles = [](const char* src) {
    const auto p = assemble(src);
    Cpu cpu;
    cpu.load_program(p);
    // Warm run to take cold misses out of the comparison.
    cpu.run(p.base, 100);
    cpu.reset_perf();
    const auto r = cpu.run(p.base, 100);
    return r.cycles;
  };
  EXPECT_EQ(cycles(dependent), cycles(independent) + 1);
}

TEST(Timing, TakenBranchCostsMore) {
  const auto p_taken = assemble("li a0, 1\nbnez a0, t\nnop\nt: ebreak");
  const auto p_not = assemble("li a0, 0\nbnez a0, t\nnop\nt: ebreak");
  auto cycles = [](const Program& p) {
    Cpu cpu;
    cpu.load_program(p);
    cpu.run(p.base, 100);
    cpu.reset_perf();
    return cpu.run(p.base, 100).cycles;
  };
  // Taken: li + bnez(+2) + ebreak = 5; not taken: li + bnez + nop + ebreak.
  EXPECT_EQ(cycles(p_taken), cycles(p_not) + 1);
}

TEST(Timing, DivSlowerThanMul) {
  auto cycles = [](const char* op) {
    const auto p = assemble(std::string("li a0, 100\nli a1, 7\n") + op +
                            " a2, a0, a1\nebreak");
    Cpu cpu;
    cpu.load_program(p);
    cpu.run(p.base, 100);
    cpu.reset_perf();
    return cpu.run(p.base, 100).cycles;
  };
  EXPECT_GT(cycles("div"), cycles("mul") + 5);
}

TEST(Timing, CacheMissesCostCycles) {
  // Stride through 256 KB: misses in L1 (16 KB), mostly hits in L2.
  const auto p = assemble(R"(
    li t0, 0x100000
    li t1, 4096       # lines
  loop:
    ld t2, 0(t0)
    addi t0, t0, 64
    addi t1, t1, -1
    bnez t1, loop
    ebreak
  )");
  Cpu cpu;
  cpu.load_program(p);
  const auto r = cpu.run(p.base, 1000000);
  EXPECT_GT(cpu.perf().l1d_misses, 4000u);
  EXPECT_GT(static_cast<double>(r.cycles) /
                static_cast<double>(r.instructions),
            2.0);
}

TEST(Timing, PerfCountersClassifyOps) {
  const auto p = assemble(R"(
    li a0, 5
    li a1, 6
    mul a2, a0, a1
    ld a3, 0(zero)
    sd a3, 8(zero)
    beq a0, a0, done
  done:
    ebreak
  )");
  Cpu cpu;
  cpu.load_program(p);
  cpu.run(p.base, 100);
  EXPECT_EQ(cpu.perf().mul_ops, 1u);
  EXPECT_EQ(cpu.perf().loads, 1u);
  EXPECT_EQ(cpu.perf().stores, 1u);
  EXPECT_EQ(cpu.perf().branches, 1u);
  EXPECT_EQ(cpu.perf().taken_branches, 1u);
  EXPECT_GT(cpu.perf().ipc(), 0.0);
}

TEST(Cpu, IllegalInstructionThrows) {
  Cpu cpu;
  cpu.memory().write32(0x10000, 0xFFFFFFFFu);
  EXPECT_THROW(cpu.run(0x10000, 10), std::runtime_error);
}

TEST(Memory, SparseAndWide) {
  Memory m;
  EXPECT_EQ(m.read64(0x123456789ull), 0u);  // untouched = zero
  EXPECT_EQ(m.page_count(), 0u);            // ...and reading maps nothing
  m.write64(0x123456789ull, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(m.read64(0x123456789ull), 0xDEADBEEFCAFEF00Dull);
  m.write_double(64, 3.25);
  EXPECT_DOUBLE_EQ(m.read_double(64), 3.25);
  EXPECT_EQ(m.page_count(), 2u);
}

TEST(Memory, WordAccessAtPageEndsMatchesBytewiseModel) {
  // Widths 2, 4 and 8 at each offset 4089..4095 of a page, so the last
  // ones straddle into the next page, mapped or not.
  constexpr std::uint64_t kPage = 0x7000;
  for (const bool next_mapped : {false, true}) {
    for (const int width : {2, 4, 8}) {
      for (std::uint64_t off = 4089; off <= 4095; ++off) {
        Memory m;
        std::map<std::uint64_t, std::uint8_t> model;  // mapped bytes only
        const std::uint64_t end = kPage + 4096 + (next_mapped ? 16 : 0);
        for (std::uint64_t a = kPage + 4080; a < end; ++a) {
          model[a] = static_cast<std::uint8_t>(a * 37 + 11);
          m.write8(a, model[a]);
        }
        const auto byte = [&](std::uint64_t a) -> std::uint64_t {
          const auto it = model.find(a);
          return it == model.end() ? 0 : it->second;
        };
        const std::uint64_t addr = kPage + off;
        std::uint64_t want = 0;
        for (int i = 0; i < width; ++i) want |= byte(addr + i) << (8 * i);
        EXPECT_EQ(m.read(addr, width), want) << width << " @ " << off;
        EXPECT_EQ(m.page_count(), next_mapped ? 2u : 1u);

        const std::uint64_t value = 0x0123456789ABCDEFull;
        m.write(addr, value, width);
        for (int i = 0; i < width; ++i)
          model[addr + i] = static_cast<std::uint8_t>(value >> (8 * i));
        for (std::uint64_t a = kPage + 4080; a < kPage + 4096 + 16; ++a)
          EXPECT_EQ(m.read8(a), byte(a)) << width << " @ " << off;
        EXPECT_EQ(m.page_count(), next_mapped || off + width > 4096 ? 2u : 1u);
      }
    }
  }
}

TEST(Memory, CopyDoesNotAliasPages) {
  Memory a;
  a.write64(0x1000, 1);
  EXPECT_EQ(a.read64(0x1000), 1u);  // a's page cache now holds the page
  Memory b = a;
  b.write64(0x1000, 2);
  EXPECT_EQ(a.read64(0x1000), 1u);
  a = b;
  a.write64(0x1000, 3);
  EXPECT_EQ(b.read64(0x1000), 2u);
}

}  // namespace
}  // namespace cryo::riscv
