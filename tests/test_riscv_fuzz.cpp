// Seeded fuzzing of the RISC-V front end, both directions:
//   * decode closure: every word decode() accepts is the encoding of what
//     it decodes to, encode(decode(w)) == w, for random words and for
//     every row's match with random operand bits;
//   * assembler mutants: every mutant of the six classification-kernel
//     sources assembles to a Program of canonical words or throws a
//     line-numbered std::runtime_error, nothing else.
// The goldens pin decode and the assembler to the words they produced
// before the instruction table replaced the hand-written decoder.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "classify/kernels.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"
#include "riscv/isa.hpp"
#include "riscv/workloads.hpp"

namespace cryo::riscv {
namespace {

constexpr std::uint64_t kSeed = 0x215c5f;

// FNV-1a over 64-bit values, little-endian bytes.
class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

// Draws from mt19937_64 directly: its sequence is specified bit for bit,
// the standard distributions' are not.
std::int64_t signed_draw(Rng& rng, int bits) {
  return static_cast<std::int64_t>(rng.word() % (1ull << bits)) -
         (1ll << (bits - 1));
}

// A random Instruction `op` can encode: registers 0-31 and an immediate
// its format holds.
Instruction canonical(Op op, Rng& rng) {
  Instruction in;
  in.op = op;
  in.rd = static_cast<int>(rng.word() % 32);
  in.rs1 = static_cast<int>(rng.word() % 32);
  in.rs2 = static_cast<int>(rng.word() % 32);
  switch (op) {
    case Op::kLui: case Op::kAuipc:
      in.imm = signed_draw(rng, 20) * 4096;
      break;
    case Op::kJal:
      in.imm = signed_draw(rng, 20) * 2;
      break;
    case Op::kBeq: case Op::kBne: case Op::kBlt: case Op::kBge:
    case Op::kBltu: case Op::kBgeu:
      in.imm = signed_draw(rng, 12) * 2;
      break;
    case Op::kSlli: case Op::kSrli: case Op::kSrai:
      in.imm = static_cast<std::int64_t>(rng.word() % 64);
      break;
    case Op::kSlliw: case Op::kSrliw: case Op::kSraiw:
      in.imm = static_cast<std::int64_t>(rng.word() % 32);
      break;
    default:
      in.imm = signed_draw(rng, 12);
      break;
  }
  return in;
}

std::string show(std::uint32_t word) {
  return strprintf("0x%08x", word);
}

TEST(DecodeFuzz, CanonicalWordsDecodeAsRecorded) {
  Rng rng(22);
  Fnv fnv;
  for (int op = 1; op <= static_cast<int>(Op::kCpop); ++op) {
    for (int trial = 0; trial < 64; ++trial) {
      const Instruction in = canonical(static_cast<Op>(op), rng);
      const Instruction out = decode(encode(in));
      ASSERT_EQ(out.op, in.op) << op_table()[op - 1].mnemonic;
      fnv.add(static_cast<std::uint64_t>(out.op));
      fnv.add(static_cast<std::uint64_t>(out.rd));
      fnv.add(static_cast<std::uint64_t>(out.rs1));
      fnv.add(static_cast<std::uint64_t>(out.rs2));
      fnv.add(static_cast<std::uint64_t>(out.imm));
      fnv.add(out.raw);
    }
  }
  EXPECT_EQ(fnv.hash(), 0xe00d44f671adce8aull);
}

// encode(decode(w)) == w for every word decode accepts.
void expect_closed(std::uint32_t word) {
  const Instruction d = decode(word);
  if (d.op == Op::kInvalid) return;
  ASSERT_EQ(encode(d), word) << show(word) << " decodes as "
                             << op_table()[static_cast<int>(d.op) - 1].mnemonic;
}

TEST(DecodeFuzz, RandomWordsAreInvalidOrCanonical) {
  Rng rng(kSeed);
  int valid = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const auto word = static_cast<std::uint32_t>(rng.word());
    ASSERT_NO_FATAL_FAILURE(expect_closed(word));
    valid += decode(word).op != Op::kInvalid;
  }
  EXPECT_GT(valid, 10'000);  // the stream reaches past the invalid space
}

TEST(DecodeFuzz, EveryRowRoundTripsAnyOperandBits) {
  Rng rng(kSeed + 1);
  for (const OpInfo& row : op_table()) {
    for (int i = 0; i < 4096; ++i) {
      const auto word = row.match | (static_cast<std::uint32_t>(rng.word()) &
                                     ~row.mask);
      ASSERT_EQ(decode(word).op, row.op) << row.mnemonic << " " << show(word);
      ASSERT_NO_FATAL_FAILURE(expect_closed(word));
    }
  }
}

TEST(DecodeFuzz, NonCanonicalWordsAreInvalid) {
  const std::uint32_t words[] = {
      0x04208033,  // OP with the reserved funct7 0x02 (add-like)
      0xC2051553,  // fcvt.w.d a0, fa0, rtz: rs2 = 0, not fcvt.l.d's 2
      0xC2351553,  // fcvt.lu.d a0, fa0, rtz: rs2 = 3
      0x00051567,  // jalr with funct3 = 1
      0x02B50553,  // fadd.d with rm = 0 instead of the dynamic rm 7
      0x000000F3,  // ecall with rd = 1
      0x60101513,  // cpop's funct12 with rs2 = 1 (ctz)
      0x0200101B,  // slliw with shamt bit 5 set
      0x00000000, 0xFFFFFFFF};
  for (const std::uint32_t word : words)
    EXPECT_EQ(decode(word).op, Op::kInvalid) << show(word);
}

// --- Assembler -----------------------------------------------------------

struct Source {
  const char* name;
  std::string text;
};

std::vector<Source> kernel_sources() {
  using classify::hdc_kernel_source;
  using classify::knn_kernel_source;
  return {{"knn", knn_kernel_source({false})},
          {"knn+sqrt", knn_kernel_source({true})},
          {"hdc", hdc_kernel_source({false, false})},
          {"hdc+cpop", hdc_kernel_source({false, true})},
          {"hdc+precompute", hdc_kernel_source({true, false})},
          {"hdc+precompute+cpop", hdc_kernel_source({true, true})}};
}

std::uint64_t words_hash(const Program& p) {
  Fnv fnv;
  fnv.add(p.words.size());
  for (const std::uint32_t w : p.words) fnv.add(w);
  return fnv.hash();
}

TEST(AssemblerFuzz, SourcesAssembleToRecordedWords) {
  const std::uint64_t golden[] = {
      0x2ca5bbf7bb2a20abull, 0x1539ad7ff0feac51ull, 0x807abefb4ea80c47ull,
      0x8f799766036e0defull, 0xbe5af511c3caa5fcull, 0x28094c868f6c0f1eull};
  const auto sources = kernel_sources();
  for (std::size_t i = 0; i < sources.size(); ++i)
    EXPECT_EQ(words_hash(assemble(sources[i].text)), golden[i])
        << sources[i].name;
  EXPECT_EQ(words_hash(dhrystone_like(200)), 0x8088bd7138f51890ull);
}

class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {}
  std::size_t below(std::size_t n) { return n == 0 ? 0 : rng_.word() % n; }

 private:
  Rng rng_;
};

bool separator(char c) {
  return std::isspace(static_cast<unsigned char>(c)) || c == ',' ||
         c == '(' || c == ')' || c == ':';
}

// The token around `pos`: a run of non-separators, or the one separator.
std::pair<std::size_t, std::size_t> token_at(const std::string& text,
                                             std::size_t pos) {
  if (separator(text[pos])) return {pos, pos + 1};
  std::size_t lo = pos, hi = pos;
  while (lo > 0 && !separator(text[lo - 1])) --lo;
  while (hi < text.size() && !separator(text[hi])) ++hi;
  return {lo, hi};
}

void mutate(std::string& text, Draw& draw) {
  if (text.empty()) return;
  const std::size_t pos = draw.below(text.size());
  switch (draw.below(6)) {
    case 0:  // byte flip: one bit, or any byte
      text[pos] = draw.below(2)
                      ? static_cast<char>(text[pos] ^ (1 << draw.below(8)))
                      : static_cast<char>(draw.below(256));
      break;
    case 1:  // truncation
      text.resize(pos);
      break;
    case 2: {  // token deletion
      const auto [lo, hi] = token_at(text, pos);
      text.erase(lo, hi - lo);
      break;
    }
    case 3: {  // token duplication
      const auto [lo, hi] = token_at(text, pos);
      text.insert(hi, (draw.below(2) ? " " : ", ") + text.substr(lo, hi - lo));
      break;
    }
    case 4: {  // digit edit: replace one, or lengthen its number
      std::size_t at = text.find_first_of("0123456789", pos);
      if (at == std::string::npos) at = text.find_first_of("0123456789");
      if (at == std::string::npos) break;
      if (draw.below(2))
        text[at] = static_cast<char>('0' + draw.below(10));
      else
        text.insert(at, std::string(1 + draw.below(20), '7'));
      break;
    }
    default: {  // sign edit: drop a '-', or put one before a token
      const std::size_t minus = text.find('-', pos);
      if (minus != std::string::npos && draw.below(2)) {
        text.erase(minus, 1);
      } else {
        const auto [lo, hi] = token_at(text, pos);
        text.insert(lo, draw.below(2) ? "-" : "+");
      }
      break;
    }
  }
}

// "assembler line N: ..." with N a line of `text`.
bool line_numbered(const std::string& what, const std::string& text) {
  const std::string prefix = "assembler line ";
  if (!starts_with(what, prefix)) return false;
  std::size_t used = 0;
  const int line = std::stoi(what.substr(prefix.size()), &used);
  const auto lines = static_cast<int>(split(text, '\n').size());
  return line >= 1 && line <= lines && what[prefix.size() + used] == ':';
}

TEST(AssemblerFuzz, MutantsAssembleOrThrowLineNumberedError) {
  constexpr int kPerSource = 3000;
  Draw draw(kSeed);
  int assembled = 0, rejected = 0;
  for (const Source& source : kernel_sources()) {
    for (int i = 0; i < kPerSource; ++i) {
      std::string text = source.text;
      const std::size_t edits = 1 + draw.below(3);
      for (std::size_t e = 0; e < edits; ++e) mutate(text, draw);
      try {
        const Program p = assemble(text);
        ++assembled;
        // No source has data directives, so every word is an instruction.
        for (const std::uint32_t w : p.words) {
          ASSERT_NE(decode(w).op, Op::kInvalid)
              << source.name << " mutant " << i << ": " << show(w);
          ASSERT_EQ(encode(decode(w)), w) << source.name << " mutant " << i;
        }
      } catch (const std::runtime_error& e) {
        ++rejected;
        ASSERT_TRUE(line_numbered(e.what(), text))
            << source.name << " mutant " << i << ": " << e.what();
      } catch (const std::exception& e) {
        FAIL() << source.name << " mutant " << i
               << " threw a non-runtime_error: " << e.what();
      }
    }
  }
  // Both outcomes occur, so the mutants neither all break the syntax nor
  // all miss it.
  const int total = 6 * kPerSource;
  EXPECT_GT(assembled, total / 20);
  EXPECT_GT(rejected, total / 20);
  std::printf("%d mutants assembled, %d rejected\n", assembled, rejected);
}

}  // namespace
}  // namespace cryo::riscv
