// cryo::sweep engine + core::Corner + core::FlowError tests.
//
// The determinism tests load the committed full-catalog Liberty artifacts
// (like test_flow); the cache/eviction and failure-isolation tests use a
// tiny INV-only catalog in a scratch store so characterization stays in
// the millisecond range.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <unordered_set>

#include "core/corner.hpp"
#include "core/error.hpp"
#include "core/flow.hpp"
#include "liberty/liberty.hpp"
#include "obs/metrics.hpp"
#include "sweep/sweep.hpp"

namespace cryo::sweep {
namespace {

using core::Corner;
using core::CryoSocFlow;
using core::FlowConfig;
using core::FlowError;

// ---- Corner value semantics ---------------------------------------------

TEST(Corner, KeyLabelSlugAndFactories) {
  const Corner room = Corner::room();
  EXPECT_DOUBLE_EQ(room.vdd, 0.7);
  EXPECT_DOUBLE_EQ(room.temperature, 300.0);
  EXPECT_EQ(room.name, "300k");
  EXPECT_EQ(room.key(), "v0.7_t300");
  EXPECT_EQ(room.label(), "300k");

  const Corner cryo = Corner::cryo(0.65);
  EXPECT_EQ(cryo.key(), "v0.65_t10");

  // Unnamed corners label themselves with the key; the slug is
  // filename-safe ('.' -> 'p').
  const Corner bare{0.65, 300.0, ""};
  EXPECT_EQ(bare.label(), "v0.65_t300");
  EXPECT_EQ(bare.slug(), "v0p65_t300");

  // Shortest round-trip formatting, not "0.6999999...".
  const Corner v{0.7 + 0.0, 77.0, ""};
  EXPECT_EQ(v.key(), "v0.7_t77");
}

TEST(Corner, IdentityIsVddAndTemperatureOnly) {
  const Corner a{0.7, 300.0, "signoff"};
  const Corner b{0.7, 300.0, "tt_corner"};
  const Corner c{0.7, 10.0, "signoff"};
  EXPECT_EQ(a, b);  // names differ, identity doesn't
  EXPECT_NE(a, c);
  EXPECT_EQ(std::hash<Corner>{}(a), std::hash<Corner>{}(b));

  std::unordered_set<Corner> set;
  set.insert(a);
  set.insert(b);
  set.insert(c);
  EXPECT_EQ(set.size(), 2u);

  // Ordering: by temperature, then vdd.
  EXPECT_LT(c, a);
  EXPECT_LT((Corner{0.6, 300.0, ""}), (Corner{0.7, 300.0, ""}));
}

// ---- FlowError ----------------------------------------------------------

TEST(FlowError, CarriesStageCornerAndPath) {
  const FlowError plain("characterize", "/tmp/x.lib", "spice diverged");
  EXPECT_EQ(plain.stage(), "characterize");
  EXPECT_EQ(plain.path(), "/tmp/x.lib");
  EXPECT_FALSE(plain.corner().has_value());
  EXPECT_NE(std::string(plain.what()).find("characterize"),
            std::string::npos);
  EXPECT_NE(std::string(plain.what()).find("/tmp/x.lib"), std::string::npos);

  const auto bound =
      FlowError::at_corner(plain, Corner::cryo(), "artifact-load");
  EXPECT_EQ(bound.stage(), "artifact-load");
  ASSERT_TRUE(bound.corner().has_value());
  EXPECT_DOUBLE_EQ(bound.corner()->temperature, 10.0);
  EXPECT_NE(std::string(bound.what()).find("10k"), std::string::npos);
}

TEST(FlowError, LibertyIoThrowsStructured) {
  try {
    (void)liberty::read_file("/nonexistent/cryosoc/missing.lib");
    FAIL() << "read_file should have thrown";
  } catch (const FlowError& e) {
    EXPECT_EQ(e.stage(), "liberty-io");
    EXPECT_EQ(e.path(), "/nonexistent/cryosoc/missing.lib");
  }
  // FlowError remains a std::runtime_error for legacy catch sites.
  EXPECT_THROW((void)liberty::read_file("/nonexistent/cryosoc/missing.lib"),
               std::runtime_error);
}

// ---- Sweep determinism vs the sequential flow ---------------------------

FlowConfig full_catalog_config() {
  FlowConfig config;
  config.calibrate_devices = false;
  return config;
}

void expect_same_timing(const sta::TimingReport& a,
                        const sta::TimingReport& b) {
  EXPECT_DOUBLE_EQ(a.critical_delay, b.critical_delay);
  EXPECT_DOUBLE_EQ(a.fmax, b.fmax);
  EXPECT_DOUBLE_EQ(a.worst_hold_slack, b.worst_hold_slack);
  EXPECT_EQ(a.has_hold_endpoints, b.has_hold_endpoints);
  EXPECT_EQ(a.endpoint_count, b.endpoint_count);
  EXPECT_EQ(a.critical_endpoint, b.critical_endpoint);
  ASSERT_EQ(a.critical_path.size(), b.critical_path.size());
  for (std::size_t i = 0; i < a.critical_path.size(); ++i) {
    EXPECT_EQ(a.critical_path[i].instance, b.critical_path[i].instance);
    EXPECT_EQ(a.critical_path[i].cell, b.critical_path[i].cell);
    EXPECT_DOUBLE_EQ(a.critical_path[i].delay, b.critical_path[i].delay);
    EXPECT_DOUBLE_EQ(a.critical_path[i].arrival,
                     b.critical_path[i].arrival);
  }
}

TEST(Sweep, TwoCornerSweepMatchesSequentialAtAnyThreadCount) {
  // Sequential reference: the paper's 300 K / 10 K signoff, one corner at
  // a time.
  CryoSocFlow seq(full_catalog_config());
  const auto t300 = seq.timing(seq.corner(300.0));
  const auto t10 = seq.timing(seq.corner(10.0));

  for (int threads : {1, 4}) {
    CryoSocFlow flow(full_catalog_config());
    serve::SweepQuery request;
    request.corners = {flow.corner(300.0), flow.corner(10.0)};
    request.run_timing = true;
    request.threads = threads;
    const auto report = run_sweep(flow, request);
    ASSERT_EQ(report.corners.size(), 2u);
    EXPECT_EQ(report.failed, 0u);
    ASSERT_TRUE(report.corners[0].ok) << report.corners[0].error;
    ASSERT_TRUE(report.corners[1].ok) << report.corners[1].error;
    ASSERT_TRUE(report.corners[0].timing.has_value());
    ASSERT_TRUE(report.corners[1].timing.has_value());
    expect_same_timing(*report.corners[0].timing, t300);
    expect_same_timing(*report.corners[1].timing, t10);

    // Derived scalars: 10 K is the slow corner (Table 1), and the fmax
    // curve is ascending in temperature.
    ASSERT_TRUE(report.worst_corner.has_value());
    EXPECT_EQ(*report.worst_corner, 1u);
    ASSERT_EQ(report.fmax_vs_temperature.size(), 2u);
    EXPECT_DOUBLE_EQ(report.fmax_vs_temperature[0].first, 10.0);
    EXPECT_DOUBLE_EQ(report.fmax_vs_temperature[1].first, 300.0);
  }
}

TEST(Sweep, JsonReportCarriesSchema) {
  CryoSocFlow flow(full_catalog_config());
  serve::SweepQuery request;
  request.corners = {flow.corner(300.0)};
  const auto report = run_sweep(flow, request);
  const std::string json = to_json(report).dump(2);
  EXPECT_NE(json.find("\"schema\": \"cryosoc-sweep-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"corners\""), std::string::npos);
  EXPECT_NE(json.find("\"fmax_hz\""), std::string::npos);
}

TEST(Sweep, EmptyGridThrows) {
  CryoSocFlow flow(full_catalog_config());
  EXPECT_THROW(run_sweep(flow, serve::SweepQuery{}),
               std::invalid_argument);
}

TEST(Sweep, NearbyTemperaturesAreTwoCurvePoints) {
  // Curve points group corners by exact temperature: 154.321987 K prints
  // as "154.322" with six digits, yet it is its own point beside
  // 154.322 K. Anchored interpolation keeps both characterization-free.
  auto config = full_catalog_config();
  config.interp_anchor_temps = {10.0, 300.0};
  CryoSocFlow flow(config);

  auto& runs = obs::registry().counter("charlib.runs");
  const auto runs0 = runs.value();

  serve::SweepQuery request;
  request.corners = {flow.corner(154.321987), flow.corner(154.322)};
  request.run_timing = true;
  const auto report = run_sweep(flow, request);

  ASSERT_EQ(report.corners.size(), 2u);
  EXPECT_EQ(report.failed, 0u);
  ASSERT_EQ(report.fmax_vs_temperature.size(), 2u);
  EXPECT_EQ(report.fmax_vs_temperature[0].first, 154.321987);
  EXPECT_EQ(report.fmax_vs_temperature[1].first, 154.322);
  // Both corners rode the committed anchors; nothing characterized.
  EXPECT_EQ(runs.value(), runs0);
}

TEST(Sweep, CoolingVerdictNamesTheFeasibilityOutcome) {
  // The crossover optional alone could not distinguish "fits everywhere"
  // from "infeasible even at the coldest corner" — both were silence.
  CryoSocFlow flow(full_catalog_config());
  serve::SweepQuery request;
  request.corners = {flow.corner(10.0), flow.corner(300.0)};
  request.run_timing = true;
  request.run_power = true;
  request.run_feasibility = true;

  // Baseline run to learn the two power totals.
  request.cooling_budget_w = 1.0;
  const auto probe = run_sweep(flow, request);
  ASSERT_EQ(probe.failed, 0u);
  ASSERT_TRUE(probe.corners[0].power && probe.corners[1].power);
  const double p_cold = probe.corners[0].power->total();
  const double p_warm = probe.corners[1].power->total();
  ASSERT_LT(p_cold, p_warm);  // cooling saves power (the paper's premise)

  // Budget between the two totals: a crossover exists and is bracketed.
  request.cooling_budget_w = 0.5 * (p_cold + p_warm);
  const auto mid = run_sweep(flow, request);
  EXPECT_EQ(mid.cooling_verdict, serve::CoolingVerdict::kCrossover);
  ASSERT_TRUE(mid.cooling_crossover_k.has_value());
  EXPECT_GE(*mid.cooling_crossover_k, 10.0);
  EXPECT_LE(*mid.cooling_crossover_k, 300.0);

  // Budget above every total: fits everywhere, no crossover.
  request.cooling_budget_w = 2.0 * p_warm;
  const auto roomy = run_sweep(flow, request);
  EXPECT_EQ(roomy.cooling_verdict, serve::CoolingVerdict::kFitsEverywhere);
  EXPECT_FALSE(roomy.cooling_crossover_k.has_value());

  // Budget below every total: infeasible even at the coldest corner —
  // previously indistinguishable from the case above.
  request.cooling_budget_w = 0.5 * p_cold;
  const auto tight = run_sweep(flow, request);
  EXPECT_EQ(tight.cooling_verdict,
            serve::CoolingVerdict::kInfeasibleEverywhere);
  EXPECT_FALSE(tight.cooling_crossover_k.has_value());

  // The verdict rides the cryosoc-sweep-v1 document.
  const std::string json = to_json(tight).dump(2);
  EXPECT_NE(json.find("\"cooling_verdict\": \"infeasible_everywhere\""),
            std::string::npos);

  // A sweep without power results reports not_evaluated.
  serve::SweepQuery timing_only;
  timing_only.corners = {flow.corner(300.0)};
  const auto no_power = run_sweep(flow, timing_only);
  EXPECT_EQ(no_power.cooling_verdict,
            serve::CoolingVerdict::kNotEvaluated);
}

// ---- Corner cache: eviction + reload ------------------------------------

FlowConfig tiny_config(const std::string& lib_dir) {
  FlowConfig config;
  config.calibrate_devices = false;
  config.lib_dir = lib_dir;
  config.catalog.only_bases = {"INV"};
  config.catalog.drives = {1};
  config.catalog.extra_drives_common = {};
  config.catalog.include_slvt = false;
  return config;
}

TEST(Sweep, CornerCacheEvictsLruAndHeldEntriesSurvive) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "cryosoc_sweep_lru";
  fs::remove_all(dir);

  auto config = tiny_config(dir.string());
  config.corner_cache_capacity = 2;
  CryoSocFlow flow(config);

  auto& hits = obs::registry().counter("sweep.corner_cache.hit");
  auto& misses = obs::registry().counter("sweep.corner_cache.miss");
  auto& evicts = obs::registry().counter("sweep.corner_cache.evict");
  const auto hit0 = hits.value();
  const auto miss0 = misses.value();
  const auto evict0 = evicts.value();

  const auto lib300 = flow.library(flow.corner(300.0));  // miss: build
  (void)flow.library(flow.corner(10.0));                 // miss: build
  EXPECT_EQ(misses.value() - miss0, 2u);
  EXPECT_EQ(evicts.value() - evict0, 0u);

  // Third corner overflows capacity 2: the LRU entry (300 K) is evicted,
  // but the held shared_ptr keeps its library alive and intact.
  (void)flow.library(flow.corner(77.0));
  EXPECT_EQ(evicts.value() - evict0, 1u);
  EXPECT_EQ(lib300->name, "cryo5_300k");
  EXPECT_FALSE(lib300->cells.empty());
  EXPECT_DOUBLE_EQ(lib300->temperature, 300.0);

  // Touching the evicted corner is a miss again; the artifact store makes
  // the rebuild a disk load, not a re-characterization.
  auto& charlib_runs = obs::registry().counter("charlib.runs");
  const auto runs_before = charlib_runs.value();
  const auto reloaded = flow.library(flow.corner(300.0));
  EXPECT_EQ(misses.value() - miss0, 4u);
  EXPECT_EQ(charlib_runs.value(), runs_before);  // loaded, not rebuilt
  EXPECT_EQ(reloaded->name, "cryo5_300k");
  EXPECT_NE(reloaded.get(), lib300.get());  // distinct resident copy

  // A resident corner is a hit and must not evict anything.
  (void)flow.library(flow.corner(300.0));
  EXPECT_GE(hits.value() - hit0, 1u);
  fs::remove_all(dir);
}

// ---- Failure isolation --------------------------------------------------

TEST(Sweep, QuarantinedCornerSurfacesAsPerCornerError) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "cryosoc_sweep_quar";
  fs::remove_all(dir);

  // The hostile cell from the quarantine test: its only arc measures a
  // node nothing drives, so characterization quarantines it at every
  // corner.
  cells::CellDef broken = cells::make_cell("INV", 1, cells::VtFlavor::kLvt);
  broken.name = "INV_BROKEN";
  broken.arcs.resize(1);
  broken.arcs[0].output = "Z";
  broken.arcs[0].input_rise = true;
  broken.arcs[0].output_rise = false;

  auto config = tiny_config(dir.string());
  config.cells_override = {
      {cells::make_cell("INV", 1, cells::VtFlavor::kLvt), broken}};
  CryoSocFlow flow(config);

  serve::SweepQuery request;
  request.corners = {flow.corner(300.0), flow.corner(10.0)};
  request.run_timing = false;
  request.run_leakage = true;

  // run_sweep completes instead of throwing; each degraded corner carries
  // its own quarantine error.
  const auto report = run_sweep(flow, request);
  ASSERT_EQ(report.corners.size(), 2u);
  EXPECT_EQ(report.failed, 2u);
  for (const auto& r : report.corners) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error_stage, "quarantine");
    EXPECT_NE(r.error.find("INV_BROKEN"), std::string::npos) << r.error;
  }
  fs::remove_all(dir);
}

TEST(Sweep, CorruptArtifactFailsItsCornerNotSiblings) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "cryosoc_sweep_bad";
  fs::remove_all(dir);
  const auto config = tiny_config(dir.string());

  // Build both corners' artifacts, then corrupt the 10 K library body
  // while keeping its (still-matching) manifest: a fresh fingerprint whose
  // content cannot load is a corrupt store entry, surfaced as a per-corner
  // artifact-load error instead of a silent re-characterization.
  {
    CryoSocFlow warmup(config);
    (void)warmup.library(warmup.corner(300.0));
    (void)warmup.library(warmup.corner(10.0));
  }
  std::ofstream(dir / "cryo5_10k.lib") << "not a liberty file\n";

  CryoSocFlow flow(config);
  serve::SweepQuery request;
  request.corners = {flow.corner(300.0), flow.corner(10.0)};
  request.run_timing = false;
  request.run_leakage = true;
  const auto report = run_sweep(flow, request);

  ASSERT_EQ(report.corners.size(), 2u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_TRUE(report.corners[0].ok) << report.corners[0].error;
  EXPECT_GT(report.corners[0].library_leakage_w, 0.0);
  EXPECT_FALSE(report.corners[1].ok);
  EXPECT_EQ(report.corners[1].error_stage, "artifact-load");
  EXPECT_NE(report.corners[1].error.find("cryo5_10k.lib"),
            std::string::npos)
      << report.corners[1].error;
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cryo::sweep
