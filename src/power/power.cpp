#include "power/power.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cryo::power {
namespace {

double activity_of(const ActivityProfile& profile, const std::string& name) {
  std::size_t best_len = 0;
  double best = profile.default_activity;
  for (const auto& [prefix, act] : profile.unit_activity) {
    if (prefix.size() > best_len && name.rfind(prefix, 0) == 0) {
      best_len = prefix.size();
      best = act;
    }
  }
  return best;
}

double rate_of(const std::map<std::string, double>& rates,
               const std::string& name) {
  for (const auto& [prefix, r] : rates)
    if (name.rfind(prefix, 0) == 0) return r;
  return 0.0;
}

}  // namespace

PowerAnalyzer::PowerAnalyzer(const netlist::Netlist& netlist,
                             const charlib::Library& library,
                             const sram::SramModel& sram_model,
                             sta::StaOptions sta_options)
    : nl_(netlist),
      lib_(library),
      sram_(sram_model),
      owned_sta_(std::in_place, netlist, library, sram_model, sta_options),
      sta_(*owned_sta_) {}

PowerAnalyzer::PowerAnalyzer(const netlist::Netlist& netlist,
                             const charlib::Library& library,
                             const sram::SramModel& sram_model,
                             const sta::StaEngine& engine)
    : nl_(netlist), lib_(library), sram_(sram_model), sta_(engine) {}

PowerReport PowerAnalyzer::analyze(const ActivityProfile& profile) const {
  OBS_SPAN("power.analyze");
  static obs::Counter& analyses = obs::registry().counter("power.analyses");
  analyses.add(1);
  PowerReport report;
  const double f = profile.clock_frequency;
  const double vdd = lib_.vdd;
  constexpr double kNominalSlew = 10e-12;

  double clock_cap = 0.0;
  for (std::size_t gi = 0; gi < nl_.gates().size(); ++gi) {
    const auto& gate = nl_.gates()[gi];
    const charlib::CellChar& cell = sta_.gate_cell(gi);
    report.leakage_logic += cell.leakage_avg;

    // Mean switching energy per output toggle at the actual load.
    double toggle_energy = 0.0;
    int arc_count = 0;
    for (const auto& out : cell.def.outputs) {
      const netlist::NetId y = gate.pin(out.name);
      if (y == netlist::kNoNet) continue;
      const double load = sta_.net_load(y);
      for (const auto& arc : cell.arcs) {
        if (arc.output != out.name) continue;
        toggle_energy += std::max(arc.energy.lookup(kNominalSlew, load), 0.0);
        ++arc_count;
      }
    }
    if (arc_count > 0) toggle_energy /= arc_count;
    const double toggles_per_sec = activity_of(profile, gate.name) * f;
    report.dynamic_logic += toggle_energy * toggles_per_sec;

    // Clock pin capacitance accumulates into the clock-tree switching.
    if (cell.def.sequential)
      clock_cap += cell.pin_cap(cell.def.clock);
  }
  // Clock tree: full swing on both edges each cycle => C * Vdd^2 * f.
  if (nl_.clock() != netlist::kNoNet) {
    const double wire = sta_.net_load(nl_.clock());
    report.dynamic_logic += (clock_cap + wire) * vdd * vdd * f;
  }

  for (const auto& m : nl_.srams()) {
    const auto p = sram_.power({m.rows, m.cols});
    report.leakage_sram += p.leakage;
    const double reads = rate_of(profile.sram_reads_per_cycle, m.name);
    const double writes = rate_of(profile.sram_writes_per_cycle, m.name);
    report.dynamic_sram +=
        (reads * p.read_energy + writes * p.write_energy) * f;
  }
  return report;
}

PowerReport PowerAnalyzer::analyze(
    const gatesim::MeasuredActivity& activity) const {
  OBS_SPAN("power.analyze_measured");
  static obs::Counter& analyses =
      obs::registry().counter("power.measured_analyses");
  analyses.add(1);
  PowerReport report;
  const double f = activity.clock_frequency;
  const double vdd = lib_.vdd;
  constexpr double kNominalSlew = 10e-12;

  double clock_cap = 0.0;
  for (std::size_t gi = 0; gi < nl_.gates().size(); ++gi) {
    const auto& gate = nl_.gates()[gi];
    const charlib::CellChar& cell = sta_.gate_cell(gi);
    report.leakage_logic += cell.leakage_avg;

    for (const auto& out : cell.def.outputs) {
      const netlist::NetId y = gate.pin(out.name);
      if (y == netlist::kNoNet) continue;
      const double load = sta_.net_load(y);
      double toggle_energy = 0.0;
      int arc_count = 0;
      for (const auto& arc : cell.arcs) {
        if (arc.output != out.name) continue;
        toggle_energy += std::max(arc.energy.lookup(kNominalSlew, load), 0.0);
        ++arc_count;
      }
      if (arc_count > 0) toggle_energy /= arc_count;
      report.dynamic_logic +=
          toggle_energy * activity.toggles_per_cycle(y) * f;
      // An inertially cancelled pulse still charges the gate's internal
      // nodes and part of the load before collapsing: book it as a
      // half-swing transition.
      report.dynamic_glitch +=
          0.5 * toggle_energy * activity.glitches_per_cycle(y) * f;
    }
    if (cell.def.sequential) clock_cap += cell.pin_cap(cell.def.clock);
  }
  if (nl_.clock() != netlist::kNoNet) {
    const double wire = sta_.net_load(nl_.clock());
    report.dynamic_logic += (clock_cap + wire) * vdd * vdd * f;
  }

  for (const auto& m : nl_.srams()) {
    const auto p = sram_.power({m.rows, m.cols});
    report.leakage_sram += p.leakage;
    const auto rit = activity.sram_reads_per_cycle.find(m.name);
    const auto wit = activity.sram_writes_per_cycle.find(m.name);
    const double reads =
        rit == activity.sram_reads_per_cycle.end() ? 0.0 : rit->second;
    const double writes =
        wit == activity.sram_writes_per_cycle.end() ? 0.0 : wit->second;
    report.dynamic_sram +=
        (reads * p.read_energy + writes * p.write_energy) * f;
  }
  return report;
}

}  // namespace cryo::power
