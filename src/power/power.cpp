#include "power/power.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cryo::power {
namespace {

constexpr double kNominalSlew = 10e-12;

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
    : PowerAnalyzer(netlist, library, sram_model,
                    sta::StaEngine(netlist, library, sram_model,
                                   sta_options)) {}

PowerAnalyzer::PowerAnalyzer(const netlist::Netlist& netlist,
                             const charlib::Library& library,
                             const sram::SramModel& sram_model,
                             const sta::StaEngine& engine)
    : nl_(netlist), vdd_(library.vdd) {
  OBS_SPAN("power.prepare");
  const auto& gates = nl_.gates();
  gate_energy_.reserve(gates.size());
  outputs_.reserve(gates.size());
  double clock_cap = 0.0;
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    const auto& gate = gates[gi];
    const charlib::CellChar& cell = engine.gate_cell(gi);
    leakage_logic_ += cell.leakage_avg;

    // Mean switching energy per output toggle at the actual load: over
    // all connected outputs' arcs for the gate, and per output.
    double gate_energy = 0.0;
    int gate_arcs = 0;
    for (const auto& out : cell.def.outputs) {
      const netlist::NetId y = gate.pin(out.name);
      if (y == netlist::kNoNet) continue;
      const double load = engine.net_load(y);
      double energy = 0.0;
      int arcs = 0;
      for (const auto& arc : cell.arcs) {
        if (arc.output != out.name) continue;
        const double e = std::max(arc.energy.lookup(kNominalSlew, load), 0.0);
        gate_energy += e;
        ++gate_arcs;
        energy += e;
        ++arcs;
      }
      if (arcs > 0) energy /= arcs;
      outputs_.push_back({y, energy});
    }
    if (gate_arcs > 0) gate_energy /= gate_arcs;
    gate_energy_.push_back(gate_energy);

    // Clock pin capacitance accumulates into the clock-tree switching.
    if (cell.def.sequential) clock_cap += cell.pin_cap(cell.def.clock);
  }
  if (nl_.clock() != netlist::kNoNet)
    clock_load_ = clock_cap + engine.net_load(nl_.clock());

  macros_.reserve(nl_.srams().size());
  for (const auto& m : nl_.srams()) {
    macros_.push_back(sram_model.power({m.rows, m.cols}));
    leakage_sram_ += macros_.back().leakage;
  }
}

PowerReport PowerAnalyzer::analyze(const ActivityProfile& profile) const {
  OBS_SPAN("power.analyze");
  static obs::Counter& analyses = obs::registry().counter("power.analyses");
  analyses.add(1);
  PowerReport report;
  const double f = profile.clock_frequency;
  report.leakage_logic = leakage_logic_;
  report.leakage_sram = leakage_sram_;

  const auto& gates = nl_.gates();
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    const double toggles_per_sec = activity_of(profile, gates[gi].name) * f;
    report.dynamic_logic += gate_energy_[gi] * toggles_per_sec;
  }
  // Clock tree: full swing on both edges each cycle => C * Vdd^2 * f.
  if (clock_load_) report.dynamic_logic += *clock_load_ * vdd_ * vdd_ * f;

  for (std::size_t i = 0; i < macros_.size(); ++i) {
    const std::string& name = nl_.srams()[i].name;
    const double reads = rate_of(profile.sram_reads_per_cycle, name);
    const double writes = rate_of(profile.sram_writes_per_cycle, name);
    report.dynamic_sram +=
        (reads * macros_[i].read_energy + writes * macros_[i].write_energy) *
        f;
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
  report.leakage_logic = leakage_logic_;
  report.leakage_sram = leakage_sram_;

  for (const OutputEnergy& out : outputs_) {
    report.dynamic_logic +=
        out.energy * activity.toggles_per_cycle(out.net) * f;
    // An inertially cancelled pulse still charges the gate's internal
    // nodes and part of the load before collapsing: book it as a
    // half-swing transition.
    report.dynamic_glitch +=
        0.5 * out.energy * activity.glitches_per_cycle(out.net) * f;
  }
  if (clock_load_) report.dynamic_logic += *clock_load_ * vdd_ * vdd_ * f;

  for (std::size_t i = 0; i < macros_.size(); ++i) {
    const std::string& name = nl_.srams()[i].name;
    const auto rit = activity.sram_reads_per_cycle.find(name);
    const auto wit = activity.sram_writes_per_cycle.find(name);
    const double reads =
        rit == activity.sram_reads_per_cycle.end() ? 0.0 : rit->second;
    const double writes =
        wit == activity.sram_writes_per_cycle.end() ? 0.0 : wit->second;
    report.dynamic_sram +=
        (reads * macros_[i].read_energy + writes * macros_[i].write_energy) *
        f;
  }
  return report;
}

}  // namespace cryo::power
