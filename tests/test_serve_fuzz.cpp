// Deterministic mutation fuzzing of the request reader, parse_request().
// Every mutant of a served request line must come back as a FlowRequest or
// throw core::FlowError with stage "request-parse": never crash, recurse
// without bound or throw anything else. An accepted request must render to
// text that parses back to the same request fingerprint, so what the
// service executes and coalesces on is what the client sent. The seeds are
// the benchmark's warm-up lines plus a measured-power line and a sweep
// with per-unit activities and SRAM rates; the seed and the iteration
// count are fixed, so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <cctype>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/error.hpp"
#include "serve/request.hpp"

namespace cryo::serve {
namespace {

constexpr std::uint64_t kSeed = 0x5e27e;
constexpr int kIterations = 20000;

const std::vector<std::string>& seed_lines() {
  static const std::vector<std::string> lines = {
      // cryobench's warm-up lines, byte for byte.
      R"({"schema":"cryosoc-req-v1","kind":"timing","id":"w-t300","corner":{"vdd":0.7,"temperature_k":300}})",
      R"({"schema":"cryosoc-req-v1","kind":"power","id":"w-p300","corner":{"vdd":0.7,"temperature_k":300},"profile":{"clock_frequency_hz":0,"default_activity":0.1}})",
      R"({"schema":"cryosoc-req-v1","kind":"leakage","id":"w-l300","corner":{"vdd":0.7,"temperature_k":300}})",
      R"({"schema":"cryosoc-req-v1","kind":"sram","id":"w-s300","corner":{"vdd":0.7,"temperature_k":300},"macro":{"rows":512,"cols":64}})",
      R"({"schema":"cryosoc-req-v1","kind":"timing","id":"w-t10","corner":{"vdd":0.7,"temperature_k":10}})",
      R"({"schema":"cryosoc-req-v1","kind":"power","id":"w-p10","corner":{"vdd":0.7,"temperature_k":10},"profile":{"clock_frequency_hz":0,"default_activity":0.1}})",
      R"({"schema":"cryosoc-req-v1","kind":"leakage","id":"w-l10","corner":{"vdd":0.7,"temperature_k":10}})",
      R"({"schema":"cryosoc-req-v1","kind":"sram","id":"w-s10","corner":{"vdd":0.7,"temperature_k":10},"macro":{"rows":512,"cols":64}})",
      R"({"schema":"cryosoc-req-v1","kind":"sweep","id":"w-sweep","sweep":{"corners":[{"vdd":0.7,"temperature_k":300},{"vdd":0.7,"temperature_k":10}],"run_timing":true,"run_power":true,"run_leakage":true,"run_feasibility":true,"profile":{"clock_frequency_hz":0,"default_activity":0.1},"threads":1}})",
      R"({"schema":"cryosoc-req-v1","kind":"measured_power","id":"w-m300","corner":{"vdd":0.7,"temperature_k":300,"name":"300k"},"activity":{"clock_frequency_hz":1e9,"cycles":40,"events":3879,"glitches":470,"net_toggles":[3,0,12,7],"net_glitches":[1,0,0,2],"sram_reads_per_cycle":{"l1i_tags":0.5,"l1i_data0":0.125},"sram_writes_per_cycle":{"l1d_data0":0.0625}}})",
      R"({"schema":"cryosoc-req-v1","kind":"sweep","id":"w-units","sweep":{"corners":[{"vdd":0.7,"temperature_k":300},{"vdd":0.65,"temperature_k":77},{"vdd":0.7,"temperature_k":10}],"run_timing":true,"run_power":true,"run_leakage":false,"run_feasibility":true,"profile":{"clock_frequency_hz":1.5e9,"default_activity":0.05,"unit_activity":{"alu":0.45,"pc":0.3,"l1d":0.2},"sram_reads_per_cycle":{"l1d_data":0.125,"l1i_tags":0.5},"sram_writes_per_cycle":{"l1d_data":0.0625}},"cooling_budget_w":0.1,"deadline_s":1e-4,"cycles_per_classification":1500,"qubits":27,"threads":2}})",
  };
  return lines;
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
      static const std::string_view kBytes = "{}[]:,\"\\ -.eE+0123456789tfn";
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
      text.insert(hi, (draw.below(2) ? "," : "") + text.substr(lo, hi - lo));
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
          "e999", "e-999", "e+400", "e", "e-", "E308", "e-330", ".5",
          "e99999999999999999999", "e2", "e0", "ex"};
      const std::size_t pos = find_from(text, draw, [&](std::size_t p) {
        return is_digit(p) && (p + 1 == text.size() || !is_digit(p + 1));
      });
      if (pos != std::string::npos) text.insert(pos + 1, draw.pick(kExponents));
      break;
    }
    default: {  // nesting, balanced or not, as a value after some ':'
      static const std::size_t kDepths[] = {1, 8, 63, 64, 65, 1000, 100000};
      const std::size_t pos = find_from(
          text, draw, [&](std::size_t p) { return text[p] == ':'; });
      if (pos == std::string::npos) break;
      const std::size_t depth = kDepths[draw.below(std::size(kDepths))];
      const char open = draw.below(2) ? '[' : '{';
      std::string nest;
      if (open == '[') {
        nest.assign(depth, '[');
        if (draw.below(4)) nest.append(depth, ']');
      } else {
        for (std::size_t i = 0; i < depth; ++i) nest += "{\"k\":";
        nest += "0";
        if (draw.below(4)) nest.append(depth, '}');
      }
      text.insert(pos + 1, nest + (draw.below(2) ? "," : ""));
      break;
    }
  }
}

// parse_request's outcome: the request, or the stage it failed at.
struct Outcome {
  std::optional<FlowRequest> request;
  std::string stage;
  std::string error;
};

Outcome parse(const std::string& text) {
  Outcome out;
  try {
    out.request = parse_request(text);
  } catch (const core::FlowError& e) {
    out.stage = e.stage();
    out.error = e.what();
  } catch (const std::exception& e) {
    out.stage = "non-FlowError";
    out.error = e.what();
  }
  return out;
}

TEST(ServeFuzz, SeedsParseAndRoundTrip) {
  for (const std::string& line : seed_lines()) {
    const Outcome first = parse(line);
    ASSERT_TRUE(first.request) << first.error << "\n" << line;
    const Outcome again = parse(to_json(*first.request).dump_line());
    ASSERT_TRUE(again.request) << again.error;
    EXPECT_EQ(request_fingerprint(*again.request),
              request_fingerprint(*first.request));
  }
}

TEST(ServeFuzz, MutantsParseOrFailAtRequestParse) {
  Draw draw(kSeed);
  int accepted = 0, rejected = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::string text = seed_lines()[draw.below(seed_lines().size())];
    const std::size_t edits = 1 + draw.below(3);
    for (std::size_t e = 0; e < edits; ++e) mutate(text, draw);
    const Outcome outcome = parse(text);
    if (!outcome.request) {
      ++rejected;
      if (outcome.stage != "request-parse")
        ADD_FAILURE() << "mutant " << i << " failed at stage '"
                      << outcome.stage << "': " << outcome.error << "\n"
                      << text.substr(0, 400);
      continue;
    }
    ++accepted;
    const std::string rendered = to_json(*outcome.request).dump_line();
    const Outcome again = parse(rendered);
    if (!again.request) {
      ADD_FAILURE() << "mutant " << i << " re-renders to text that fails: "
                    << again.error << "\n" << rendered.substr(0, 400);
    } else if (request_fingerprint(*again.request) !=
               request_fingerprint(*outcome.request)) {
      ADD_FAILURE() << "mutant " << i << " changes fingerprint when "
                    << "re-rendered\n" << rendered.substr(0, 400);
    }
  }
  // Both outcomes occur, so the mutants neither all break the syntax nor
  // all miss the values.
  EXPECT_GT(accepted, kIterations / 20);
  EXPECT_GT(rejected, kIterations / 20);
  std::printf("%d mutants accepted, %d rejected\n", accepted, rejected);
}

}  // namespace
}  // namespace cryo::serve
