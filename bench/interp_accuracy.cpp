// Held-out validation of temperature-interpolated NLDM libraries.
//
// Characterizes anchor libraries (10/40/77/150/300 K — the extra 40 K
// anchor splits the strongly nonlinear cold interval), builds a
// liberty::InterpLibrary over them, then characterizes HELD-OUT midpoint
// temperatures directly and measures the interpolated library against the
// direct one with liberty::compare_libraries: per-table maximum relative
// error for delay / output slew / energy plus the scalar categories (pin
// caps, leakage, setup/hold). This is the error-bound methodology behind
// ROADMAP item 5's continuous-temperature claim — a dense fmax-vs-T sweep
// is only as trustworthy as the interpolation between its anchors.
//
// Gates (BenchReport::gate; the exit status is nonzero if any fails):
//  - held-out max relative DELAY error <= 5% on every anchor interval,
//  - an anchor-temperature synthesis reproduces the anchor exactly,
//  - out-of-span requests clamp and count on interp.extrapolations,
//  - exactly one characterization per anchor and per held-out midpoint.
//
// CRYOSOC_BENCH_QUICK=1: tiny INV+NAND2 catalog for CI smoke; the full
// run uses the five-base probe catalog.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cells/celldef.hpp"
#include "charlib/characterizer.hpp"
#include "core/corner.hpp"
#include "liberty/interp.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace cryo;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

charlib::Library characterize(const std::vector<cells::CellDef>& defs,
                              double temperature) {
  charlib::CharOptions options;
  options.temperature = temperature;
  charlib::Characterizer ch(device::golden_nmos(), device::golden_pmos(),
                            options);
  char name[32];
  std::snprintf(name, sizeof name, "interp_%gk", temperature);
  return ch.characterize_all(defs, name);
}

obs::Json delta_json(double temperature, const liberty::LibraryDelta& d) {
  obs::Json j = obs::Json::object();
  j["temperature_k"] = temperature;
  j["max_delay_rel"] = d.max_delay_rel;
  j["max_slew_rel"] = d.max_slew_rel;
  j["max_energy_rel"] = d.max_energy_rel;
  j["max_pin_cap_rel"] = d.max_pin_cap_rel;
  j["max_leakage_rel"] = d.max_leakage_rel;
  j["max_constraint_rel"] = d.max_constraint_rel;
  j["max_rel"] = d.max_rel;
  j["worst_table"] = d.worst_table;
  return j;
}

}  // namespace

int main() {
  bench::header("interp_accuracy: held-out interpolated-library validation",
                "temperature-continuum NLDM (ROADMAP item 5)");
  auto report = bench::make_report("interp_accuracy");
  const bool quick = bench::quick();

  cells::CatalogOptions copt;
  copt.only_bases = quick ? std::vector<std::string>{"INV", "NAND2"}
                          : std::vector<std::string>{"INV", "NAND2", "NOR2",
                                                     "AOI21", "DFF"};
  copt.drives = quick ? std::vector<int>{1} : std::vector<int>{1, 2};
  copt.extra_drives_common = {};
  copt.include_slvt = false;
  const auto defs = cells::standard_cells(copt);

  // Carrier mobility (and with it delay) varies steeply below ~77 K, so
  // the cold end gets a tighter anchor spacing than the warm end. With
  // anchors only at {10, 77, ...} the 43.5 K held-out delay error is ~8%
  // on the full catalog; the 40 K anchor brings every interval under the
  // 5% bound.
  const std::vector<double> anchor_temps = {10.0, 40.0, 77.0, 150.0, 300.0};
  const double delay_error_bound = 0.05;

  // ---- characterize anchors ---------------------------------------------
  auto& runs = obs::registry().counter("charlib.runs");
  const auto runs0 = runs.value();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::shared_ptr<const charlib::Library>> anchors;
  for (double t : anchor_temps)
    anchors.push_back(
        std::make_shared<charlib::Library>(characterize(defs, t)));
  const double anchor_seconds = seconds_since(t0);
  std::printf("\n%zu cells, %zu anchors (%.0f..%.0f K): %.2f s to "
              "characterize\n",
              defs.size(), anchors.size(), anchor_temps.front(),
              anchor_temps.back(), anchor_seconds);

  const liberty::InterpLibrary interp(anchors);

  // ---- held-out midpoints -------------------------------------------------
  // One held-out temperature per anchor interval: the worst case for
  // piecewise-linear interpolation is mid-interval.
  std::printf("\n%-10s | %-10s %-10s %-10s %-10s | %s\n", "T [K]",
              "delay", "slew", "energy", "overall", "worst table");
  obs::Json held_out = obs::Json::array();
  double worst_delay_rel = 0.0, worst_rel = 0.0;
  for (std::size_t i = 0; i + 1 < anchor_temps.size(); ++i) {
    const double t = 0.5 * (anchor_temps[i] + anchor_temps[i + 1]);
    const charlib::Library direct = characterize(defs, t);
    const charlib::Library synth = interp.at(t);
    const auto delta = liberty::compare_libraries(direct, synth);
    std::printf("%-10.1f | %-10.4f %-10.4f %-10.4f %-10.4f | %s\n", t,
                delta.max_delay_rel, delta.max_slew_rel,
                delta.max_energy_rel, delta.max_rel,
                delta.worst_table.c_str());
    held_out.push_back(delta_json(t, delta));
    worst_delay_rel = std::max(worst_delay_rel, delta.max_delay_rel);
    worst_rel = std::max(worst_rel, delta.max_rel);
    char name[48];
    std::snprintf(name, sizeof name, "held_out.%gK.max_delay_rel", t);
    report.gate(name, delta.max_delay_rel, "<=", delay_error_bound);
  }

  // ---- anchor reproduction + clamp behavior -------------------------------
  const auto anchor_delta =
      liberty::compare_libraries(*anchors.back(), interp.at(300.0));
  report.gate("anchor_reproduction.max_rel", anchor_delta.max_rel, "==", 0);
  auto& extrapolations = obs::registry().counter("interp.extrapolations");
  const auto extrap0 = extrapolations.value();
  const auto clamped =
      liberty::compare_libraries(*anchors.front(), interp.at(4.0));
  report.gate("extrapolation.count", extrapolations.value() - extrap0, "==",
              1);
  report.gate("extrapolation.clamped_max_rel", clamped.max_rel, "==", 0);

  const auto characterizations = runs.value() - runs0;
  std::printf("\nworst held-out delay error: %.4f (bound %g); "
              "%llu characterizations total\n",
              worst_delay_rel, delay_error_bound,
              static_cast<unsigned long long>(characterizations));
  // Characterization budget: each anchor plus one held-out midpoint per
  // interval, nothing else.
  report.gate("characterizations", characterizations, "==",
              2 * anchor_temps.size() - 1);

  report.results()["cells"] = defs.size();
  obs::Json anchors_json = obs::Json::array();
  for (double t : anchor_temps) anchors_json.push_back(t);
  report.results()["anchor_temps_k"] = std::move(anchors_json);
  report.results()["anchor_seconds"] = anchor_seconds;
  report.results()["held_out"] = std::move(held_out);
  report.results()["max_delay_rel"] = worst_delay_rel;
  report.results()["max_rel"] = worst_rel;
  report.results()["anchor_reproduction_exact"] =
      anchor_delta.max_rel == 0.0;
  report.results()["extrapolation_clamped"] = clamped.max_rel == 0.0;
  report.results()["characterizations"] = characterizations;
  return report.exit_code();
}
