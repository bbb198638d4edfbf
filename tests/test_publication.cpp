// A cold corner's partial publication, end to end through CryoSocFlow.
//
// The catalog here synthesizes the SoC at a fraction of the full one's
// cost: 11 bases at the default drives, no SLVT (48 cells, 23 of them
// instantiated). Every test copies one shared 300 K artifact, so the
// netlist is synthesized from the same library everywhere, and then
// characterizes a corner nobody has characterized in its directory.
//
// Payloads are compared with a flow that built the corner through
// library() before any query. A flow that loads the artifact that flow
// wrote must answer byte for byte alike, because a characterized library
// holds exactly its artifact's numbers.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <optional>
#include <string>
#include <thread>

#include "core/corner_cache.hpp"
#include "core/error.hpp"
#include "core/flow.hpp"
#include "obs/metrics.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"

namespace cryo::serve {
namespace {

namespace fs = std::filesystem;
using core::Corner;
using core::CryoSocFlow;
using core::FlowConfig;

const Corner kCold{0.7, 77.0, ""};

FlowConfig soc_config(const fs::path& dir, int threads) {
  FlowConfig config;
  config.calibrate_devices = false;
  config.lib_dir = dir.string();
  config.catalog.only_bases = {"INV",  "BUF",   "AND2", "AND4",
                               "OR2",  "OR4",   "XOR2", "XNOR2",
                               "MUX2", "FA",    "DFF"};
  config.catalog.include_slvt = false;
  config.characterize_threads = threads;
  return config;
}

std::uint64_t counter(const char* name) {
  return obs::registry().counter(name).value();
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// A directory holding only the shared 300 K artifact.
fs::path fresh_dir(const std::string& name) {
  static const fs::path seeded = [] {
    const fs::path dir = fs::path(::testing::TempDir()) / "publication_300k";
    fs::remove_all(dir);
    CryoSocFlow flow(soc_config(dir, 4));
    flow.library(flow.corner(300.0));
    return dir;
  }();
  const fs::path dir = fs::path(::testing::TempDir()) / ("publication_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const char* file : {"cryo5_300k.lib", "cryo5_300k.lib.manifest"})
    fs::copy_file(seeded / file, dir / file);
  return dir;
}

std::string payload(const FlowResponse& response) {
  EXPECT_TRUE(response.ok) << response.error;
  return response_payload_json(response).dump(0);
}

struct Payloads {
  std::string timing, power, measured_power, leakage, sram, sweep;
};

// A made-up toggle and glitch count for every net of the netlist.
FlowRequest measured_power_request(CryoSocFlow& flow) {
  FlowRequest request;
  request.kind = QueryKind::kMeasuredPower;
  request.corner = kCold;
  request.activity.cycles = 1000;
  for (std::size_t net = 0; net < flow.soc().net_count(); ++net) {
    request.activity.net_toggles.push_back(net * 37 % 11);
    request.activity.net_glitches.push_back(net % 7 == 0);
  }
  return request;
}

// Timing, power at the corner's fmax and from measured activity, which
// may answer from a partial library; then leakage, which waits for the
// full one, the SRAM model and a sweep over the corner and 300 K.
Payloads serve_payloads(CryoSocFlow& flow) {
  power::ActivityProfile profile;
  profile.default_activity = 0.1;
  SweepQuery sweep;
  sweep.corners = {kCold, flow.corner(300.0)};
  sweep.run_timing = true;
  sweep.run_power = true;
  sweep.run_leakage = true;
  sweep.profile = profile;
  Payloads p;
  p.timing = payload(execute(flow, timing_request(kCold)));
  p.power = payload(execute(flow, power_request(kCold, profile)));
  p.measured_power = payload(execute(flow, measured_power_request(flow)));
  p.leakage = payload(execute(flow, leakage_request(kCold)));
  p.sram = payload(execute(flow, sram_request(kCold, {256, 32})));
  p.sweep = payload(execute(flow, sweep_request(sweep)));
  return p;
}

struct Reference {
  fs::path dir;
  Payloads payloads;
};

const Reference& reference() {
  static const Reference ref = [] {
    Reference r;
    r.dir = fresh_dir("reference");
    CryoSocFlow flow(soc_config(r.dir, 4));
    flow.library(kCold);
    r.payloads = serve_payloads(flow);
    return r;
  }();
  return ref;
}

void expect_reference(const Payloads& got) {
  const Payloads& want = reference().payloads;
  EXPECT_EQ(got.timing, want.timing);
  EXPECT_EQ(got.power, want.power);
  EXPECT_EQ(got.measured_power, want.measured_power);
  EXPECT_EQ(got.leakage, want.leakage);
  EXPECT_EQ(got.sram, want.sram);
  EXPECT_EQ(got.sweep, want.sweep);
}

void check_partial_then_full(int threads) {
  reference();
  const fs::path dir = fresh_dir("partial_t" + std::to_string(threads));
  CryoSocFlow flow(soc_config(dir, threads));
  const auto publications = counter("flow.partial_publications");
  const auto runs = counter("charlib.runs");

  // The timing call builds the corner and answers from its partial state.
  const Payloads partial = serve_payloads(flow);
  EXPECT_EQ(counter("flow.partial_publications") - publications, 1u);
  expect_reference(partial);

  // Leakage returned only after the full state landed: everything now
  // answers from it, and its artifact is on disk.
  ASSERT_TRUE(fs::exists(dir / "cryo5_77k.lib"));
  expect_reference(serve_payloads(flow));
  EXPECT_EQ(counter("flow.partial_publications") - publications, 1u);
  EXPECT_EQ(counter("charlib.runs") - runs, 1u);
  EXPECT_EQ(slurp(dir / "cryo5_77k.lib"),
            slurp(reference().dir / "cryo5_77k.lib"));
}

// ---- CornerCache's early values ------------------------------------------

using IntCache = core::CornerCache<int>;

// A build that returns `early` at once and hands its ticket out, so the
// test lands the final value (or the failure) when it chooses.
IntCache::Build early_build(int early, std::optional<IntCache::Ticket>& out) {
  return [early, &out](const IntCache::Ticket& ticket) {
    out = ticket;
    return IntCache::Built{std::make_shared<int>(early), true};
  };
}

TEST(CornerCache, EarlyValueAnswersOnlyCallersThatAcceptIt) {
  IntCache cache(1, "test.early_cache");
  std::optional<IntCache::Ticket> ticket;
  EXPECT_EQ(*cache.get_or_build(kCold, early_build(1, ticket), true), 1);
  ASSERT_TRUE(ticket.has_value());
  const auto no_build = [](const IntCache::Ticket&) -> IntCache::Built {
    ADD_FAILURE() << "a pinned slot must not build again";
    return {};
  };
  EXPECT_EQ(*cache.get_or_build(kCold, no_build, true), 1);

  // A caller that wants the final value waits for finish(); the pinned
  // slot survives a capacity squeeze meanwhile.
  auto waiter = std::async(std::launch::async,
                           [&] { return *cache.get_or_build(kCold, no_build); });
  cache.get_or_build(Corner{0.7, 10.0, ""}, [](const IntCache::Ticket&) {
    return IntCache::Built{std::make_shared<int>(10)};
  });
  EXPECT_EQ(waiter.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  cache.finish(*ticket, std::make_shared<int>(2));
  EXPECT_EQ(waiter.get(), 2);
  EXPECT_EQ(*cache.get_or_build(kCold, no_build, true), 2);
}

TEST(CornerCache, LateFailureReachesWaitersAndTheNextCallRebuilds) {
  IntCache cache(4, "test.late_failure_cache");
  std::optional<IntCache::Ticket> ticket;
  cache.get_or_build(kCold, early_build(1, ticket), true);
  const auto misses = counter("test.late_failure_cache.miss");
  auto waiter = std::async(std::launch::async, [&] {
    return *cache.get_or_build(kCold, [](const IntCache::Ticket&) {
      return IntCache::Built{std::make_shared<int>(-1)};
    });
  });
  // The waiter holds the slot from its miss on, so it sees the failure.
  while (counter("test.late_failure_cache.miss") == misses)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  cache.finish(*ticket, nullptr,
               std::make_exception_ptr(core::FlowError("characterize", "",
                                                       "late failure")));
  try {
    waiter.get();
    FAIL() << "the waiter should get the late failure";
  } catch (const core::FlowError& e) {
    EXPECT_EQ(e.stage(), "characterize");
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(*cache.get_or_build(kCold, [](const IntCache::Ticket&) {
    return IntCache::Built{std::make_shared<int>(3)};
  }), 3);
}

// ---- CryoSocFlow ---------------------------------------------------------

TEST(Publication, PartialThenFullPayloadsMatchALibraryFirstFlowOneThread) {
  check_partial_then_full(1);
}

TEST(Publication, PartialThenFullPayloadsMatchALibraryFirstFlowFourThreads) {
  check_partial_then_full(4);
}

TEST(Publication, ReloadedArtifactAnswersLikeTheFlowThatCharacterizedIt) {
  // A second flow over the reference store loads the 77 K artifact the
  // reference flow wrote, instead of characterizing.
  const Reference& ref = reference();
  CryoSocFlow flow(soc_config(ref.dir, 4));
  const auto runs = counter("charlib.runs");
  expect_reference(serve_payloads(flow));
  EXPECT_EQ(counter("charlib.runs") - runs, 0u);
}

TEST(Publication, DestroyingTheFlowAfterAPartialAnswerWritesTheArtifact) {
  const fs::path dir = fresh_dir("destroy");
  {
    CryoSocFlow flow(soc_config(dir, 4));
    const auto publications = counter("flow.partial_publications");
    EXPECT_EQ(payload(execute(flow, timing_request(kCold))),
              reference().payloads.timing);
    EXPECT_EQ(counter("flow.partial_publications") - publications, 1u);
  }
  for (const char* file : {"cryo5_77k.lib", "cryo5_77k.lib.manifest"}) {
    ASSERT_TRUE(fs::exists(dir / file)) << file;
    EXPECT_EQ(slurp(dir / file), slurp(reference().dir / file)) << file;
  }
}

TEST(Publication, ThreadedSweepOverAFreshCornerCompletes) {
  // The sweep's corners build inside an exec region, where a background
  // job's batches would queue behind the sweep's own: such builds must
  // characterize in place and never publish early.
  reference();
  const fs::path dir = fresh_dir("sweep");
  CryoSocFlow flow(soc_config(dir, 4));
  const auto publications = counter("flow.partial_publications");
  SweepQuery query;
  query.corners = {kCold, flow.corner(300.0)};
  query.run_timing = true;
  query.run_leakage = true;
  query.threads = 4;
  const FlowResponse response = execute(flow, sweep_request(query));
  ASSERT_TRUE(response.ok) << response.error;
  ASSERT_TRUE(response.sweep.has_value());
  EXPECT_EQ(response.sweep->failed, 0u);
  EXPECT_EQ(counter("flow.partial_publications") - publications, 0u);
  EXPECT_EQ(payload(execute(flow, timing_request(kCold))),
            reference().payloads.timing);
}

}  // namespace
}  // namespace cryo::serve
