// Deterministic mutation fuzzing of the Liberty reader. Every mutant of a
// small library's text (INV, NAND2 and DFF from the committed 300 K
// artifact) must parse to a Library or throw std::runtime_error: never
// crash, recurse without bound or throw anything else. The seed and the
// iteration count are fixed, so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <string_view>

#include "common/rng.hpp"
#include "core/flow.hpp"
#include "liberty/liberty.hpp"

namespace cryo::liberty {
namespace {

constexpr std::uint64_t kSeed = 0x11be27f;
constexpr int kIterations = 20000;

const std::string& seed_text() {
  static const std::string text = [] {
    const auto full =
        read_file(core::default_lib_dir() + "/cryo5_300k.lib");
    charlib::Library small;
    small.name = full.name;
    small.temperature = full.temperature;
    small.vdd = full.vdd;
    small.slew_grid = full.slew_grid;
    small.load_grid = full.load_grid;
    for (const char* name : {"INV_X1", "NAND2_X1", "DFF_X1"})
      small.cells.push_back(full.at(name));
    return write(small);
  }();
  return text;
}

// Draws from a fixed engine (mt19937_64's sequence is specified bit for
// bit; the standard distributions are not).
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {}
  std::size_t below(std::size_t n) { return n == 0 ? 0 : rng_.word() % n; }
  template <std::size_t N>
  const char* pick(const char* const (&options)[N]) {
    return options[below(N)];
  }

 private:
  Rng rng_;
};

bool word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '.' || c == '-' || c == '+';
}

// The token around `pos`: a run of word characters, or the one character.
std::pair<std::size_t, std::size_t> token_at(const std::string& text,
                                             std::size_t pos) {
  if (!word_char(text[pos])) return {pos, pos + 1};
  std::size_t lo = pos, hi = pos;
  while (lo > 0 && word_char(text[lo - 1])) --lo;
  while (hi < text.size() && word_char(text[hi])) ++hi;
  return {lo, hi};
}

// The first position at or after a random one where `want` holds, or npos.
template <class Pred>
std::size_t find_from(const std::string& text, Draw& draw, Pred want) {
  const std::size_t start = draw.below(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    const std::size_t pos = (start + i) % text.size();
    if (want(pos)) return pos;
  }
  return std::string::npos;
}

void mutate(std::string& text, Draw& draw) {
  if (text.empty()) return;
  const auto is_digit = [&](std::size_t pos) {
    return std::isdigit(static_cast<unsigned char>(text[pos])) != 0;
  };
  switch (draw.below(8)) {
    case 0: {  // byte flip: structural characters half the time
      static const std::string_view kBytes = "{}();:,\"\\/*\n -.e+0123456789";
      const std::size_t pos = draw.below(text.size());
      text[pos] = draw.below(2) ? kBytes[draw.below(kBytes.size())]
                                : static_cast<char>(draw.below(256));
      break;
    }
    case 1:  // truncation
      text.resize(draw.below(text.size()));
      break;
    case 2: {  // token deletion
      const auto [lo, hi] = token_at(text, draw.below(text.size()));
      text.erase(lo, hi - lo);
      break;
    }
    case 3: {  // token duplication
      const auto [lo, hi] = token_at(text, draw.below(text.size()));
      text.insert(hi, " " + text.substr(lo, hi - lo));
      break;
    }
    case 4: {  // digit edit: replace one, or grow a run of them
      const std::size_t pos = find_from(text, draw, is_digit);
      if (pos == std::string::npos) break;
      if (draw.below(2))
        text[pos] = static_cast<char>('0' + draw.below(10));
      else
        text.insert(pos, std::string(1 + draw.below(40), '9'));
      break;
    }
    case 5: {  // sign edit before a number
      const std::size_t pos = find_from(text, draw, [&](std::size_t p) {
        return is_digit(p) && (p == 0 || !is_digit(p - 1));
      });
      if (pos == std::string::npos) break;
      if (pos > 0 && (text[pos - 1] == '-' || text[pos - 1] == '+'))
        text.erase(pos - 1, 1);
      else
        text.insert(pos, draw.below(2) ? "-" : "+");
      break;
    }
    case 6: {  // exponent edit
      static const char* const kExponents[] = {
          "e999", "e-999", "e+400", "e", "e-", "E308", "e-330",
          "e99999999999999999999", "ex"};
      const std::size_t pos = find_from(text, draw, [&](std::size_t p) {
        return is_digit(p) && (p + 1 == text.size() || !is_digit(p + 1));
      });
      if (pos != std::string::npos) text.insert(pos + 1, draw.pick(kExponents));
      break;
    }
    default: {  // nesting, balanced or not, after some '{'
      static const std::size_t kDepths[] = {1, 5, 15, 16, 17, 64, 3000};
      const std::size_t pos = find_from(
          text, draw, [&](std::size_t p) { return text[p] == '{'; });
      if (pos == std::string::npos) break;
      const std::size_t depth = kDepths[draw.below(std::size(kDepths))];
      std::string nest;
      for (std::size_t i = 0; i < depth; ++i)
        nest += draw.below(4) ? "g () { " : "values (\"1\") { ";
      if (draw.below(4)) nest += std::string(depth, '}');
      text.insert(pos + 1, nest);
      break;
    }
  }
}

TEST(LibertyFuzz, SeedRoundTrips) {
  const auto lib = parse(seed_text());
  ASSERT_EQ(lib.cells.size(), 3u);
  EXPECT_EQ(write(lib), seed_text());
}

TEST(LibertyFuzz, MutantsParseOrThrowRuntimeError) {
  Draw draw(kSeed);
  int parsed = 0, rejected = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::string text = seed_text();
    const std::size_t edits = 1 + draw.below(3);
    for (std::size_t e = 0; e < edits; ++e) mutate(text, draw);
    try {
      (void)parse(text);
      ++parsed;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw a non-runtime_error: "
                    << e.what();
    }
  }
  // Both outcomes occur, so the mutants neither all break the syntax nor
  // all miss the values.
  EXPECT_GT(parsed, kIterations / 20);
  EXPECT_GT(rejected, kIterations / 20);
  std::printf("%d mutants parsed, %d rejected\n", parsed, rejected);
}

}  // namespace
}  // namespace cryo::liberty
