// liberty::InterpLibrary tests: anchor validation, piecewise-linear
// synthesis, quarantine union, clamp-with-counter extrapolation,
// compare_libraries error reporting, and the flow's anchored-interpolation
// mode (a dense T-grid must characterize only the anchors).
//
// The unit tests build synthetic anchor libraries whose every quantity is
// linear in T, so a midpoint synthesis must reproduce the directly-built
// midpoint library exactly (piecewise-linear interpolation is exact on
// linear data).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cells/celldef.hpp"
#include "core/error.hpp"
#include "core/flow.hpp"
#include "liberty/interp.hpp"
#include "obs/metrics.hpp"
#include "sweep/sweep.hpp"

namespace cryo::liberty {
namespace {

using charlib::CellChar;
using charlib::Library;
using charlib::NldmArc;
using core::FlowError;

Table2D make_table(double temp, double base, double slope) {
  Table2D t({1e-11, 3e-11, 9e-11}, {1e-15, 4e-15});
  for (std::size_t i = 0; i < t.rows(); ++i)
    for (std::size_t j = 0; j < t.cols(); ++j)
      t.at(i, j) =
          (1.0 + 0.1 * double(i) + 0.01 * double(j)) * (base + slope * temp);
  return t;
}

NldmArc make_arc(const std::string& input, bool input_rise, bool output_rise,
                 double temp) {
  NldmArc arc;
  arc.input = input;
  arc.output = "Z";
  arc.input_rise = input_rise;
  arc.output_rise = output_rise;
  arc.delay = make_table(temp, 5e-12, -1e-14);
  arc.output_slew = make_table(temp, 8e-12, -2e-14);
  arc.energy = make_table(temp, 1e-15, 2e-18);
  return arc;
}

// One INV-like cell plus one sequential cell, every quantity linear in T.
Library make_anchor(double temp) {
  Library lib;
  lib.name = "syn_" + std::to_string(int(temp)) + "k";
  lib.temperature = temp;
  lib.vdd = 0.7;
  lib.slew_grid = {1e-11, 3e-11, 9e-11};
  lib.load_grid = {1e-15, 4e-15};

  CellChar inv;
  inv.def.name = "INV_X1";
  inv.pin_caps = {{"A", 1e-15 + 1e-18 * temp}};
  inv.arcs = {make_arc("A", true, false, temp),
              make_arc("A", false, true, temp)};
  inv.leakage = {{0, 1e-9 + 1e-12 * temp}, {1, 2e-9 + 3e-12 * temp}};
  inv.leakage_avg = 1.5e-9 + 2e-12 * temp;
  lib.cells.push_back(std::move(inv));

  CellChar dff;
  dff.def.name = "DFF_X1";
  dff.def.sequential = true;
  dff.pin_caps = {{"D", 2e-15 + 2e-18 * temp}, {"CLK", 3e-15 + 1e-18 * temp}};
  dff.arcs = {make_arc("CLK", true, true, temp)};
  dff.leakage = {{0, 4e-9 + 2e-12 * temp}};
  dff.leakage_avg = 4e-9 + 2e-12 * temp;
  dff.setup_time = 2e-11 + 1e-14 * temp;
  dff.hold_time = 1e-11 - 5e-15 * temp;
  lib.cells.push_back(std::move(dff));
  return lib;
}

std::vector<std::shared_ptr<const Library>> anchors_at(
    std::initializer_list<double> temps) {
  std::vector<std::shared_ptr<const Library>> anchors;
  for (double t : temps)
    anchors.push_back(std::make_shared<Library>(make_anchor(t)));
  return anchors;
}

// ---- Synthesis ----------------------------------------------------------

TEST(InterpLibrary, MidpointReproducesLinearDataExactly) {
  const InterpLibrary interp(anchors_at({100.0, 300.0}));
  const Library got = interp.at(200.0);
  const Library want = make_anchor(200.0);

  EXPECT_EQ(got.name, "syn_100k_interp");  // default name
  EXPECT_DOUBLE_EQ(got.temperature, 200.0);
  EXPECT_DOUBLE_EQ(got.vdd, 0.7);
  ASSERT_EQ(got.cells.size(), want.cells.size());
  const auto delta = compare_libraries(want, got);
  EXPECT_LT(delta.max_rel, 1e-12) << "worst table: " << delta.worst_table;
  // Spot-check a few raw values against the closed form.
  EXPECT_DOUBLE_EQ(got.cells[0].pin_caps[0].second, 1e-15 + 1e-18 * 200.0);
  EXPECT_DOUBLE_EQ(got.cells[1].setup_time, 2e-11 + 1e-14 * 200.0);
  EXPECT_NEAR(got.cells[0].arcs[0].delay.at(0, 0), 5e-12 - 1e-14 * 200.0,
              1e-24);
}

TEST(InterpLibrary, ThreeAnchorsPickTheBracketingPair) {
  // Piecewise, not global: 50..150 and 150..350 have different slopes when
  // the anchors are not collinear. Perturb the middle anchor so a global
  // fit would be wrong, then check each segment interpolates its own pair.
  auto anchors = anchors_at({50.0, 150.0, 350.0});
  auto middle = make_anchor(150.0);
  middle.cells[0].pin_caps[0].second = 9e-15;  // off the 50/350 line
  anchors[1] = std::make_shared<Library>(std::move(middle));
  const InterpLibrary interp(anchors);

  const double cap50 = 1e-15 + 1e-18 * 50.0;
  const double cap350 = 1e-15 + 1e-18 * 350.0;
  EXPECT_DOUBLE_EQ(interp.at(100.0).cells[0].pin_caps[0].second,
                   0.5 * (cap50 + 9e-15));
  EXPECT_DOUBLE_EQ(interp.at(250.0).cells[0].pin_caps[0].second,
                   0.5 * (9e-15 + cap350));
}

TEST(InterpLibrary, AnchorTemperatureReproducesTheAnchor) {
  const InterpLibrary interp(anchors_at({100.0, 300.0}));
  const Library got = interp.at(300.0, "exact");
  EXPECT_EQ(got.name, "exact");
  const auto delta = compare_libraries(make_anchor(300.0), got);
  EXPECT_EQ(delta.max_rel, 0.0) << "worst table: " << delta.worst_table;
  EXPECT_EQ(interp.anchor_count(), 2u);
  EXPECT_DOUBLE_EQ(interp.vdd(), 0.7);
}

TEST(InterpLibrary, OutsideSpanClampsAndCounts) {
  const InterpLibrary interp(anchors_at({100.0, 300.0}));
  auto& extrapolations = obs::registry().counter("interp.extrapolations");
  const auto before = extrapolations.value();

  const Library cold = interp.at(40.0);
  EXPECT_EQ(extrapolations.value() - before, 1u);
  // Values freeze at the coldest anchor; the recorded temperature stays
  // the requested one.
  EXPECT_DOUBLE_EQ(cold.temperature, 40.0);
  EXPECT_EQ(compare_libraries(make_anchor(100.0), cold).max_rel, 0.0);

  const Library hot = interp.at(400.0);
  EXPECT_EQ(extrapolations.value() - before, 2u);
  EXPECT_EQ(compare_libraries(make_anchor(300.0), hot).max_rel, 0.0);

  // In-span requests do not count.
  (void)interp.at(200.0);
  EXPECT_EQ(extrapolations.value() - before, 2u);
}

// ---- Anchor validation --------------------------------------------------

void expect_interp_error(std::vector<std::shared_ptr<const Library>> anchors,
                         const std::string& needle) {
  try {
    InterpLibrary interp(std::move(anchors));
    FAIL() << "constructor should have thrown (" << needle << ")";
  } catch (const FlowError& e) {
    EXPECT_EQ(e.stage(), "interp");
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(InterpLibrary, RejectsBadAnchorSets) {
  expect_interp_error({}, "empty");
  expect_interp_error(anchors_at({300.0, 100.0}), "ascending");
  expect_interp_error(anchors_at({100.0, 100.0}), "ascending");

  auto mixed_vdd = anchors_at({100.0, 300.0});
  auto v = make_anchor(300.0);
  v.vdd = 0.65;
  mixed_vdd[1] = std::make_shared<Library>(std::move(v));
  expect_interp_error(std::move(mixed_vdd), "vdd");

  auto renamed = anchors_at({100.0, 300.0});
  auto r = make_anchor(300.0);
  r.cells[0].def.name = "BUF_X1";
  renamed[1] = std::make_shared<Library>(std::move(r));
  expect_interp_error(std::move(renamed), "BUF_X1");

  auto missing_pin = anchors_at({100.0, 300.0});
  auto p = make_anchor(300.0);
  p.cells[1].pin_caps.pop_back();
  missing_pin[1] = std::make_shared<Library>(std::move(p));
  expect_interp_error(std::move(missing_pin), "input pins");

  // An arc absent from one anchor WITHOUT a quarantine record is a
  // genuine topology mismatch, not a degraded characterization.
  auto missing_arc = anchors_at({100.0, 300.0});
  auto a = make_anchor(300.0);
  a.cells[0].arcs.pop_back();
  missing_arc[1] = std::make_shared<Library>(std::move(a));
  expect_interp_error(std::move(missing_arc), "missing arc");
}

// ---- Quarantine union ---------------------------------------------------

TEST(InterpLibrary, ArcQuarantinedAtAnyAnchorStaysQuarantined) {
  // Drop INV's A_fall->Z_rise arc from the middle anchor and record the
  // quarantine, charlib-style.
  const std::string label = "INV_X1:A_fall->Z_rise";
  auto anchors = anchors_at({100.0, 200.0, 300.0});
  auto degraded = make_anchor(200.0);
  degraded.cells[0].arcs.pop_back();
  degraded.cells[0].failed_arcs = {label};
  degraded.quarantined_arcs = {label};
  anchors[1] = std::make_shared<Library>(std::move(degraded));

  const InterpLibrary interp(anchors);
  // Even in the 200..300 segment — where BOTH bracketing anchors have the
  // arc — one quarantined anchor poisons the whole temperature axis.
  const Library lib = interp.at(250.0);
  ASSERT_EQ(lib.cells[0].arcs.size(), 1u);
  EXPECT_TRUE(lib.cells[0].arcs[0].input_rise);
  ASSERT_EQ(lib.cells[0].failed_arcs.size(), 1u);
  EXPECT_EQ(lib.cells[0].failed_arcs[0], label);
  ASSERT_EQ(lib.quarantined_arcs.size(), 1u);
  EXPECT_EQ(lib.quarantined_arcs[0], label);
  // The surviving arc still interpolates normally.
  EXPECT_NEAR(lib.cells[0].arcs[0].delay.at(0, 0), 5e-12 - 1e-14 * 250.0,
              1e-24);
}

// ---- compare_libraries --------------------------------------------------

TEST(CompareLibraries, ReportsWorstTableAndCategory) {
  const Library ref = make_anchor(200.0);
  Library cand = make_anchor(200.0);
  // Perturb the largest entry of one delay table by exactly 10%.
  auto& table = cand.cells[0].arcs[1].delay;
  const std::size_t i = table.rows() - 1, j = table.cols() - 1;
  table.at(i, j) *= 1.10;

  const auto delta = compare_libraries(ref, cand);
  EXPECT_NEAR(delta.max_delay_rel, 0.10, 1e-12);
  EXPECT_NEAR(delta.max_rel, 0.10, 1e-12);
  EXPECT_EQ(delta.worst_table, "INV_X1:A_fall->Z_rise:delay");
  EXPECT_DOUBLE_EQ(delta.max_slew_rel, 0.0);
  EXPECT_DOUBLE_EQ(delta.max_energy_rel, 0.0);
  EXPECT_DOUBLE_EQ(delta.max_pin_cap_rel, 0.0);
  // One TableError per NLDM table: 3 arcs x 3 tables.
  EXPECT_EQ(delta.tables.size(), 9u);

  // Mismatched topology is rejected like a bad anchor.
  Library other = make_anchor(200.0);
  other.cells[0].def.name = "NAND2_X1";
  EXPECT_THROW((void)compare_libraries(ref, other), FlowError);
}

// ---- Flow anchored-interpolation mode -----------------------------------

core::FlowConfig tiny_interp_config(const std::string& lib_dir) {
  core::FlowConfig config;
  config.calibrate_devices = false;
  config.lib_dir = lib_dir;
  config.catalog.only_bases = {"INV"};
  config.catalog.drives = {1};
  config.catalog.extra_drives_common = {};
  config.catalog.include_slvt = false;
  config.interp_anchor_temps = {150.0, 300.0};
  return config;
}

TEST(FlowInterp, RejectsBadAnchorConfig) {
  core::FlowConfig single;
  single.interp_anchor_temps = {300.0};
  try {
    core::CryoSocFlow flow(single);
    FAIL() << "single-anchor config should have thrown";
  } catch (const FlowError& e) {
    EXPECT_EQ(e.stage(), "config");
    EXPECT_NE(std::string(e.what()).find("interp_anchor_temps"),
              std::string::npos);
  }
  core::FlowConfig descending;
  descending.interp_anchor_temps = {300.0, 150.0};
  EXPECT_THROW(core::CryoSocFlow{descending}, FlowError);
}

TEST(FlowInterp, AnchorsTheArtifactCannotTellApartFailColdAndWarm) {
  // 150.0001 K prints as "150" in its artifact, so its library records
  // 150 K, as the 150 K anchor's does: the two are not ascending, in the
  // flow that characterizes them and in one that loads their artifacts.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "cryosoc_interp_twins";
  fs::remove_all(dir);
  auto config = tiny_interp_config(dir.string());
  config.interp_anchor_temps = {150.0, 150.0001, 300.0};
  auto& runs = obs::registry().counter("charlib.runs");
  for (const std::uint64_t characterizations : {3u, 0u}) {
    const auto runs0 = runs.value();
    core::CryoSocFlow flow(config);
    try {
      flow.library(flow.corner(200.0));
      ADD_FAILURE() << "anchors 150 K and 150.0001 K must not interpolate";
    } catch (const FlowError& e) {
      EXPECT_EQ(e.stage(), "interp");
      EXPECT_NE(std::string(e.what()).find("strictly ascending"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(runs.value() - runs0, characterizations);
  }
  fs::remove_all(dir);
}

TEST(FlowInterp, DenseSweepCharacterizesOnlyAnchors) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "cryosoc_interp_flow";
  fs::remove_all(dir);

  auto config = tiny_interp_config(dir.string());
  config.corner_cache_capacity = 24;  // whole grid resident
  core::CryoSocFlow flow(config);

  auto& runs = obs::registry().counter("charlib.runs");
  const auto runs0 = runs.value();

  // 20-point grid across the anchor span, leakage-only.
  serve::SweepQuery request;
  for (int i = 0; i < 20; ++i)
    request.corners.push_back(
        flow.corner(150.0 + 150.0 * double(i) / 19.0));
  request.run_timing = false;
  request.run_leakage = true;
  const auto report = sweep::run_sweep(flow, request);

  ASSERT_EQ(report.corners.size(), 20u);
  EXPECT_EQ(report.failed, 0u);
  // The tentpole claim: the whole grid cost exactly the anchor
  // characterizations (endpoints are exact anchors, the rest synthesize).
  EXPECT_EQ(runs.value() - runs0, 2u);

  // Leakage is linear in the interpolated libraries: every intermediate
  // point lies between the anchor endpoints.
  const double l150 = report.corners.front().library_leakage_w;
  const double l300 = report.corners.back().library_leakage_w;
  for (const auto& r : report.corners) {
    EXPECT_GT(r.library_leakage_w, 0.0);
    EXPECT_GE(r.library_leakage_w,
              std::min(l150, l300) * (1.0 - 1e-9));
    EXPECT_LE(r.library_leakage_w,
              std::max(l150, l300) * (1.0 + 1e-9));
  }

  // Read-side only: the store holds exactly the two anchor artifacts.
  std::size_t lib_files = 0;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".lib") ++lib_files;
  EXPECT_EQ(lib_files, 2u);
  fs::remove_all(dir);
}

TEST(FlowInterp, InterpolatedLibraryMatchesDirectCharacterization) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "cryosoc_interp_err";
  fs::remove_all(dir);

  // Held-out validation in miniature (bench/interp_accuracy runs the full
  // version): characterize the midpoint directly in a plain flow, then
  // compare the interpolated library against it.
  auto direct_config = tiny_interp_config(dir.string());
  direct_config.interp_anchor_temps.clear();
  core::CryoSocFlow direct(direct_config);
  const auto reference = direct.library(direct.corner(225.0));

  core::CryoSocFlow flow(tiny_interp_config(dir.string()));
  const auto candidate = flow.library(flow.corner(225.0));

  const auto delta = compare_libraries(*reference, *candidate);
  // Delay varies smoothly over 150..300 K; linear interpolation between
  // anchors stays within a few percent of the direct characterization.
  EXPECT_LT(delta.max_delay_rel, 0.05) << "worst: " << delta.worst_table;
  EXPECT_GT(delta.max_rel, 0.0);  // it IS an approximation
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cryo::liberty
