// Tests of cryo::obs: exact concurrent counters, histogram bucket
// semantics, Chrome-trace span export (valid JSON, balanced B/E pairs),
// the BenchReport schema, the thread-count parsing policy, the artifact
// stale-reason diagnostics, and the guarantee that tracing never changes
// deterministic outputs.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cells/celldef.hpp"
#include "charlib/characterizer.hpp"
#include "core/artifacts.hpp"
#include "device/finfet.hpp"
#include "device/modelcard.hpp"
#include "exec/exec.hpp"
#include "liberty/liberty.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "spice/engine.hpp"

namespace cryo {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Minimal JSON syntax checker: verifies the text is one well-formed JSON
// value (objects, arrays, strings with escapes, numbers, literals).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r'))
      ++pos_;
  }
  const std::string& s_;
  std::size_t pos_ = 0;
};

// Scoped environment-variable override; restores the prior value on exit.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_ = true;
      saved_ = old;
    }
    if (value)
      setenv(name, value, 1);
    else
      unsetenv(name);
  }
  ~EnvGuard() {
    if (had_)
      setenv(name_.c_str(), saved_.c_str(), 1);
    else
      unsetenv(name_.c_str());
  }

 private:
  std::string name_;
  bool had_ = false;
  std::string saved_;
};

TEST(ObsMetrics, ConcurrentCounterSumsExactly) {
  obs::Counter& c = obs::registry().counter("test.concurrent_counter");
  c.reset();
  constexpr std::size_t kTasks = 2000;
  constexpr std::uint64_t kPerTask = 37;
  exec::parallel_for(kTasks, [&](std::size_t) {
    for (std::uint64_t i = 0; i < kPerTask; ++i) c.add(1);
  });
  EXPECT_EQ(c.value(), kTasks * kPerTask);
}

TEST(ObsMetrics, CounterSameNameSameInstance) {
  obs::Counter& a = obs::registry().counter("test.same_name");
  obs::Counter& b = obs::registry().counter("test.same_name");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.add(5);
  EXPECT_EQ(b.value(), 5u);
}

TEST(ObsMetrics, GaugeSetAndAdd) {
  obs::Gauge& g = obs::registry().gauge("test.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(ObsMetrics, HistogramBucketBoundaries) {
  obs::Histogram& h =
      obs::registry().histogram("test.hist_bounds", {1.0, 10.0, 100.0});
  h.reset();
  ASSERT_EQ(h.bucket_count(), 4u);  // 3 bounds + overflow

  h.observe(0.5);    // <= 1       -> bucket 0
  h.observe(1.0);    // == bound 0 -> bucket 0 (inclusive upper bound)
  h.observe(5.0);    // <= 10      -> bucket 1
  h.observe(10.0);   // == bound 1 -> bucket 1
  h.observe(99.0);   // <= 100     -> bucket 2
  h.observe(1000.0); // past last  -> overflow

  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 5.0 + 10.0 + 99.0 + 1000.0, 1e-9);
}

TEST(ObsMetrics, HistogramQuantileInterpolatesExactly) {
  // The quantile estimator is deterministic: walk the cumulative buckets
  // to the target rank q*n, interpolate linearly inside the bucket
  // (bucket 0 spans [0, bounds[0]]), clamp to the tracked max.
  obs::Histogram& h =
      obs::registry().histogram("test.hist_quantile", {10.0});
  h.reset();
  for (const double v : {1.0, 2.0, 3.0, 4.0}) h.observe(v);
  EXPECT_DOUBLE_EQ(h.max_value(), 4.0);

  // n=4, all in bucket 0 = [0, 10]: target rank 1 -> frac 0.25 -> 2.5.
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 2.5);
  // Rank 2 -> frac 0.5 -> 5.0, clamped to the exact max 4.0.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 4.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
}

TEST(ObsMetrics, HistogramQuantileWalksBucketsAndStaysFinite) {
  obs::Histogram& h =
      obs::registry().histogram("test.hist_quantile_walk", {1.0, 10.0, 100.0});
  h.reset();
  h.observe(0.5);  // bucket 0
  for (const double v : {5.0, 6.0, 7.0}) h.observe(v);  // bucket 1
  h.observe(50.0);    // bucket 2
  h.observe(1000.0);  // overflow

  // n=6; p50 target rank 3: bucket 0 holds 1, bucket 1 reaches 4 >= 3,
  // so interpolate in [1, 10] at frac (3-1)/3 -> exactly 7.0.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 7.0);
  // p95/p99 target ranks live in the overflow bucket: the estimator
  // reports the exact tracked max — finite even for unbounded tails.
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 1000.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 1000.0);
  EXPECT_TRUE(std::isfinite(h.quantile(0.99)));
}

TEST(ObsMetrics, HistogramQuantileEmptyAndReset) {
  obs::Histogram& h =
      obs::registry().histogram("test.hist_quantile_reset", {1.0});
  h.reset();
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.max_value(), 0.0);
  h.observe(0.25);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.25);
  h.reset();
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(h.max_value(), 0.0);
}

TEST(ObsMetrics, SnapshotJsonIsValidAndContainsInstruments) {
  obs::registry().counter("test.snapshot_counter").add(3);
  obs::registry().gauge("test.snapshot_gauge").set(1.25);
  obs::registry().histogram("test.snapshot_hist").observe(0.01);
  const std::string json = obs::registry().snapshot_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("test.snapshot_counter"), std::string::npos);
  EXPECT_NE(json.find("test.snapshot_gauge"), std::string::npos);
  EXPECT_NE(json.find("test.snapshot_hist"), std::string::npos);
}

TEST(ObsMetrics, SparseSymbolicAnalysesScaleWithTopologiesNotIterations) {
  // The sparse MNA core's cost split: the symbolic analysis (pattern +
  // ordering) runs once per circuit topology, while numeric
  // refactorizations run once per NR iteration. An engine re-solved many
  // times must add many iterations and refactorizations but exactly one
  // symbolic analysis.
  auto& symbolic = obs::registry().counter("spice.symbolic_analyses");
  auto& refactors = obs::registry().counter("spice.numeric_refactors");
  auto& iterations = obs::registry().counter("spice.nr_iterations");

  spice::Circuit c;
  device::ModelCard card = device::golden_nmos();
  card.NFIN = 4;
  c.add_vsource("vdd", "vdd", "0", spice::Waveform::dc(0.7));
  c.add_resistor("vdd", "d", 5000.0);
  c.add_mosfet("m1", "d", "d", "0", device::FinFet(card, 300.0));
  spice::Engine engine(c);
  engine.set_solver(spice::LinearSolver::kSparse);

  const auto sym0 = symbolic.value();
  const auto ref0 = refactors.value();
  const auto it0 = iterations.value();
  constexpr int kSolves = 6;
  for (int i = 0; i < kSolves; ++i) engine.dc_operating_point();

  const auto iters = iterations.value() - it0;
  EXPECT_GT(iters, static_cast<std::uint64_t>(2 * kSolves));
  // O(topologies): one analysis for all solves and all their iterations.
  EXPECT_EQ(symbolic.value() - sym0, 1u);
  // Every iteration factors numerically; at most one full factorization
  // per solve discovers the pattern, the rest are refactorizations.
  EXPECT_GE(refactors.value() - ref0, iters - kSolves);
  EXPECT_GT(obs::registry().gauge("spice.fill_nnz").value(), 0.0);

  const std::string json = obs::registry().snapshot_json();
  EXPECT_NE(json.find("spice.symbolic_analyses"), std::string::npos);
  EXPECT_NE(json.find("spice.numeric_refactors"), std::string::npos);
  EXPECT_NE(json.find("spice.fill_nnz"), std::string::npos);
}

TEST(ObsMetrics, DenseSchedulesScaleWithEnginesNotIterations) {
  // The dense core's cost split: every NR iteration factors once, but the
  // elimination schedule is recorded once per engine and again only when
  // a pivot changes. The circuit here keeps its pivots, so re-solving one
  // engine adds factorizations and no schedules, and each new engine adds
  // exactly one.
  auto& schedules = obs::registry().counter("spice.dense_schedules");
  auto& factorizations =
      obs::registry().counter("spice.dense_factorizations");
  auto& iterations = obs::registry().counter("spice.nr_iterations");

  spice::Circuit c;
  device::ModelCard card = device::golden_nmos();
  card.NFIN = 4;
  c.add_vsource("vdd", "vdd", "0", spice::Waveform::dc(0.7));
  c.add_resistor("vdd", "d", 5000.0);
  c.add_mosfet("m1", "d", "d", "0", device::FinFet(card, 300.0));

  constexpr int kEngines = 3;
  constexpr int kSolves = 6;
  const auto sch0 = schedules.value();
  const auto fac0 = factorizations.value();
  const auto it0 = iterations.value();
  for (int e = 0; e < kEngines; ++e) {
    spice::Engine engine(c);
    for (int i = 0; i < kSolves; ++i) engine.dc_operating_point();
  }
  const auto iters = iterations.value() - it0;
  EXPECT_GT(iters, static_cast<std::uint64_t>(2 * kEngines * kSolves));
  EXPECT_EQ(factorizations.value() - fac0, iters);
  EXPECT_EQ(schedules.value() - sch0, static_cast<std::uint64_t>(kEngines));

  // A switching inverter chain moves its pivots mid-transient: each move
  // records a schedule, still a small fraction of the factorizations.
  spice::Circuit chain;
  device::ModelCard p = device::golden_pmos();
  p.NFIN = 3;
  chain.add_vsource("vdd", "vdd", "0", spice::Waveform::dc(0.7));
  chain.add_vsource("va", "a", "0",
                    spice::Waveform::pulse(0.0, 0.7, 5e-12, 4e-12, 4e-12,
                                           16e-12, 40e-12));
  const char* stages[][2] = {{"a", "x"}, {"x", "y"}, {"y", "out"}};
  for (const auto& [in, out] : stages) {
    chain.add_mosfet(std::string("mp_") + out, out, in, "vdd",
                     device::FinFet(p, 300.0));
    chain.add_mosfet(std::string("mn_") + out, out, in, "0",
                     device::FinFet(card, 300.0));
  }
  chain.add_capacitor("out", "0", 1e-15);
  const auto sch1 = schedules.value();
  const auto fac1 = factorizations.value();
  spice::Engine engine(chain);
  spice::TranOptions opt;
  opt.t_stop = 200e-12;
  engine.transient(opt);
  const auto rebuilt = schedules.value() - sch1;
  EXPECT_GE(rebuilt, 2u);
  EXPECT_LT(rebuilt * 20, factorizations.value() - fac1);

  const std::string json = obs::registry().snapshot_json();
  EXPECT_NE(json.find("spice.dense_factorizations"), std::string::npos);
  EXPECT_NE(json.find("spice.dense_schedules"), std::string::npos);
}

TEST(ObsTrace, WritesValidChromeTraceWithBalancedSpans) {
  const fs::path path =
      fs::temp_directory_path() / "cryosoc_test_trace.json";
  std::error_code ec;
  fs::remove(path, ec);

  obs::trace_enable(path.string());
  ASSERT_TRUE(obs::trace_enabled());
  {
    OBS_SPAN("test.outer", "detail");
    OBS_SPAN("test.inner");
  }
  // Spans from worker threads land in per-thread buffers.
  exec::parallel_for(16, [&](std::size_t i) {
    OBS_SPAN("test.task", i % 2 ? "odd" : "even");
  });
  const std::string written = obs::trace_write();
  EXPECT_EQ(written, path.string());
  EXPECT_FALSE(obs::trace_enabled());

  const std::string text = read_file(path);
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(JsonChecker(text).valid()) << text.substr(0, 400);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("test.outer:detail"), std::string::npos);
  EXPECT_NE(text.find("test.task"), std::string::npos);

  // Every begin has a matching end (count "ph":"B" vs "ph":"E").
  const auto count_of = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
      ++n;
    return n;
  };
  const std::size_t begins = count_of("\"ph\": \"B\"");
  const std::size_t ends = count_of("\"ph\": \"E\"");
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);

  fs::remove(path, ec);
}

TEST(ObsTrace, DisabledSpansRecordNothing) {
  ASSERT_FALSE(obs::trace_enabled());
  { OBS_SPAN("test.should_not_appear"); }
  EXPECT_TRUE(obs::trace_write().empty());
}

TEST(ObsReport, BenchReportMatchesSchema) {
  const fs::path dir = fs::temp_directory_path() / "cryosoc_test_bench_out";
  std::error_code ec;
  fs::remove_all(dir, ec);
  EnvGuard guard("CRYOSOC_BENCH_DIR", dir.string().c_str());

  {
    auto report = obs::BenchReport("unit_test");
    report.set_threads(3);
    report.results()["answer"] = 42;
    report.results()["nested"]["pi"] = 3.14;
    report.results()["list"].push_back(1).push_back(2);
    EXPECT_TRUE(report.gate("speedup", 2.5, ">=", 1.5));
    EXPECT_EQ(report.exit_code(), 0);
    EXPECT_FALSE(report.gate("failed_arcs", 3, "==", 0));
    EXPECT_EQ(report.exit_code(), 1);
    // A moved report keeps its gates (written below) and its verdict.
    obs::BenchReport moved(std::move(report));
    EXPECT_EQ(moved.exit_code(), 1);
    const std::string path = moved.write();
    EXPECT_EQ(path, (dir / "BENCH_unit_test.json").string());
  }

  const std::string text = read_file(dir / "BENCH_unit_test.json");
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(JsonChecker(text).valid()) << text.substr(0, 400);
  for (const char* field :
       {"\"schema\"", "cryosoc-bench-v1", "\"bench\"", "unit_test",
        "\"wall_seconds\"", "\"threads\"", "\"hardware_concurrency\"",
        "\"git\"", "\"results\"", "\"answer\"", "\"metrics\""})
    EXPECT_NE(text.find(field), std::string::npos) << field;
  EXPECT_NE(text.find("  \"gates\": [\n"
                      "    {\n"
                      "      \"name\": \"speedup\",\n"
                      "      \"value\": 2.5,\n"
                      "      \"op\": \">=\",\n"
                      "      \"bound\": 1.5,\n"
                      "      \"pass\": true\n"
                      "    },\n"
                      "    {\n"
                      "      \"name\": \"failed_arcs\",\n"
                      "      \"value\": 3,\n"
                      "      \"op\": \"==\",\n"
                      "      \"bound\": 0,\n"
                      "      \"pass\": false\n"
                      "    }\n"
                      "  ],\n"),
            std::string::npos)
      << text;

  {
    // A non-finite value fails whatever the op and bound; an op outside
    // the five throws.
    auto report = obs::BenchReport("unit_test_nonfinite");
    const double inf = std::numeric_limits<double>::infinity();
    for (const char* op : {"==", "<", "<=", ">", ">="})
      for (const double value : {std::nan(""), inf, -inf})
        for (const double bound : {-inf, 0.0, inf})
          EXPECT_FALSE(report.gate("x", value, op, bound))
              << value << " " << op << " " << bound;
    EXPECT_THROW(report.gate("x", 1.0, "!=", 0.0), std::invalid_argument);
    EXPECT_EQ(report.exit_code(), 1);
  }
  {
    auto report = obs::BenchReport("unit_test_ungated");
    EXPECT_EQ(report.exit_code(), 0);
  }
  EXPECT_NE(read_file(dir / "BENCH_unit_test_ungated.json")
                .find("  \"gates\": [],\n"),
            std::string::npos);

  fs::remove_all(dir, ec);
}

TEST(ObsJson, BothRenderingsArePinned) {
  // One document holding every value kind, both empty containers, string
  // escapes and embedded raw text, rendered both ways. The literals pin
  // the bytes consumers see: BenchReport files use dump(), cryosocd's
  // NDJSON lines dump_line().
  obs::Json doc = obs::Json::object();
  doc["null"] = obs::Json();
  doc["yes"] = true;
  doc["no"] = false;
  doc["int"] = -42;
  doc["pi"] = 3.14159265358979;
  doc["tiny"] = 1e-300;
  doc["whole"] = 2.0;
  doc["text"] = std::string("q\"b\\n\nt\tc\x01");
  doc["raw"] = obs::Json::raw("{\"pre\":[1,2]}");
  doc["empty_array"] = obs::Json::array();
  doc["empty_object"] = obs::Json::object();
  obs::Json& list = doc["list"];
  list.push_back(1);
  list.push_back("two");
  obs::Json& inner = list.push_back(obs::Json::object());
  inner["k"] = 0.5;
  inner["nested"].push_back(obs::Json::array());

  EXPECT_EQ(doc.dump(),
            "{\n"
            "  \"null\": null,\n"
            "  \"yes\": true,\n"
            "  \"no\": false,\n"
            "  \"int\": -42,\n"
            "  \"pi\": 3.14159265359,\n"
            "  \"tiny\": 1e-300,\n"
            "  \"whole\": 2,\n"
            "  \"text\": \"q\\\"b\\\\n\\nt\\tc\\u0001\",\n"
            "  \"raw\": {\"pre\":[1,2]},\n"
            "  \"empty_array\": [],\n"
            "  \"empty_object\": {},\n"
            "  \"list\": [\n"
            "    1,\n"
            "    \"two\",\n"
            "    {\n"
            "      \"k\": 0.5,\n"
            "      \"nested\": [\n"
            "        []\n"
            "      ]\n"
            "    }\n"
            "  ]\n"
            "}");
  EXPECT_EQ(doc.dump_line(),
            "{\"null\":null,\"yes\":true,\"no\":false,\"int\":-42,"
            "\"pi\":3.14159265359,\"tiny\":1e-300,\"whole\":2,"
            "\"text\":\"q\\\"b\\\\n\\nt\\tc\\u0001\","
            "\"raw\":{\"pre\":[1,2]},\"empty_array\":[],\"empty_object\":{},"
            "\"list\":[1,\"two\",{\"k\":0.5,\"nested\":[[]]}]}");
  EXPECT_TRUE(JsonChecker(doc.dump()).valid());
  EXPECT_TRUE(JsonChecker(doc.dump_line()).valid());
}

TEST(ObsJson, UnsignedValuesRenderExactly) {
  obs::Json doc = obs::Json::object();
  doc["max"] = std::numeric_limits<std::uint64_t>::max();
  doc["top_bit"] = std::uint64_t{1} << 63;
  doc["u32"] = std::numeric_limits<unsigned>::max();
  EXPECT_EQ(doc.dump_line(),
            "{\"max\":18446744073709551615,\"top_bit\":9223372036854775808,"
            "\"u32\":4294967295}");
}

TEST(ObsJson, NonFiniteNumbersRenderAsNull) {
  // %.12g would print nan/inf, which no JSON parser accepts.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v : {nan, inf, -inf}) {
    EXPECT_EQ(obs::Json(v).dump(), "null") << v;
    EXPECT_EQ(obs::Json(v).dump_line(), "null") << v;
  }
  obs::Json doc = obs::Json::object();
  doc["nan"] = nan;
  doc["inf"].push_back(inf);
  EXPECT_EQ(doc.dump_line(), "{\"nan\":null,\"inf\":[null]}");
  EXPECT_TRUE(JsonChecker(doc.dump()).valid());

  // The registry snapshot renders gauges through its own number text.
  obs::Gauge& gauge = obs::registry().gauge("test.nan_gauge");
  gauge.set(nan);
  const std::string json = obs::registry().snapshot_json();
  gauge.reset();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"test.nan_gauge\": null"), std::string::npos);
}

TEST(ObsReport, DestructorWritesIfWriteNotCalled) {
  const fs::path dir = fs::temp_directory_path() / "cryosoc_test_bench_dtor";
  std::error_code ec;
  fs::remove_all(dir, ec);
  EnvGuard guard("CRYOSOC_BENCH_DIR", dir.string().c_str());
  {
    auto report = obs::BenchReport("dtor_test");
    report.results()["x"] = 1;
  }
  EXPECT_TRUE(fs::exists(dir / "BENCH_dtor_test.json"));
  fs::remove_all(dir, ec);
}

TEST(ObsExec, ThreadCountParsingPolicy) {
  obs::Gauge& gauge = obs::registry().gauge("exec.thread_count");
  {
    EnvGuard guard("CRYOSOC_THREADS", "3");
    EXPECT_EQ(exec::thread_count(), 3u);
    EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
  }
  {
    EnvGuard guard("CRYOSOC_THREADS", "0");
    EXPECT_EQ(exec::thread_count(), 1u);
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  {
    // Garbage is rejected (with a warning) and falls back to hardware.
    EnvGuard guard("CRYOSOC_THREADS", "garbage");
    EXPECT_EQ(exec::thread_count(), hw);
    EXPECT_DOUBLE_EQ(gauge.value(), static_cast<double>(hw));
  }
  {
    EnvGuard guard("CRYOSOC_THREADS", "-2");
    EXPECT_EQ(exec::thread_count(), hw);
  }
  {
    EnvGuard guard("CRYOSOC_THREADS", "12abc");
    EXPECT_EQ(exec::thread_count(), hw);
  }
  // An explicit request always wins over the environment.
  {
    EnvGuard guard("CRYOSOC_THREADS", "5");
    EXPECT_EQ(exec::thread_count(2), 2u);
  }
}

TEST(ObsArtifacts, StaleReasonNamesDivergedField) {
  const fs::path dir = fs::temp_directory_path() / "cryosoc_test_artifacts";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  const fs::path lib_path = dir / "unit.lib";

  const auto nmos = device::golden_nmos();
  const auto pmos = device::golden_pmos();
  cells::CatalogOptions cat;
  cat.only_bases = {"INV"};
  cat.drives = {1};

  const core::ArtifactKey old_key =
      core::library_artifact_key(nmos, pmos, cat, 0.7, 300.0);
  std::ofstream(lib_path) << "library (unit) {}\n";
  liberty::write_manifest(lib_path.string(), old_key.manifest());

  // Same configuration: fresh.
  EXPECT_TRUE(core::artifact_fresh(lib_path.string(), old_key));
  EXPECT_TRUE(core::check_artifact(lib_path.string(), old_key).fresh);

  // Supply changed: stale, and the reason names the vdd field.
  const core::ArtifactKey new_key =
      core::library_artifact_key(nmos, pmos, cat, 0.65, 300.0);
  const auto status = core::check_artifact(lib_path.string(), new_key);
  EXPECT_FALSE(status.fresh);
  EXPECT_NE(status.reason.find("vdd"), std::string::npos) << status.reason;

  // Missing file: stale with a "missing" reason.
  const auto missing =
      core::check_artifact((dir / "absent.lib").string(), old_key);
  EXPECT_FALSE(missing.fresh);
  EXPECT_NE(missing.reason.find("missing"), std::string::npos);

  fs::remove_all(dir, ec);
}

// The determinism guarantee behind all of cryo::obs: instrumentation never
// feeds back into computation, so the Liberty text from characterize_all
// is byte-identical at any thread count, with tracing off or on.
TEST(ObsDeterminism, CharacterizationByteIdenticalWithTracing) {
  cells::CatalogOptions cat;
  cat.only_bases = {"INV"};
  cat.drives = {1};
  const auto defs = cells::standard_cells(cat);

  charlib::CharOptions opt;
  opt.temperature = 300.0;
  opt.vdd = 0.7;
  opt.characterize_setup_hold = false;

  const auto run = [&](int threads) {
    charlib::CharOptions o = opt;
    o.threads = threads;
    charlib::Characterizer ch(device::golden_nmos(), device::golden_pmos(),
                              o);
    return liberty::write(ch.characterize_all(defs, "obs_determinism"));
  };

  ASSERT_FALSE(obs::trace_enabled());
  const std::string serial = run(1);
  const std::string parallel = run(4);
  EXPECT_EQ(serial, parallel);

  const fs::path path =
      fs::temp_directory_path() / "cryosoc_test_determinism_trace.json";
  obs::trace_enable(path.string());
  const std::string traced = run(4);
  obs::trace_write();
  EXPECT_EQ(serial, traced);

  std::error_code ec;
  fs::remove(path, ec);
}

}  // namespace
}  // namespace cryo
