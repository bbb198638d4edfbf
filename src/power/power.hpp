// Power analysis: the Voltus stand-in.
//
// Composes the same three contributions the paper's Fig. 6 reports:
//   * dynamic power: per-gate switching energies from the NLDM energy
//     tables at each gate's actual output load, times per-unit toggle
//     rates derived from the workload simulation (plus the clock tree),
//   * logic leakage: per-cell static power from the library,
//   * SRAM leakage and access energy from the macro model.
//
// Activity is supplied per functional unit (a name-prefix map) because the
// workload runs on the instruction-set simulator, not on the gate-level
// netlist; the ISS reports per-unit utilizations that translate into
// toggle probabilities. This mirrors the paper's methodology of extracting
// switching activity from workload simulation instead of blanket
// statistical activity (Sec. VI-B).
//
// Everything that does not depend on the activity is computed once, by the
// constructor: each gate's and each connected output's switching energy at
// its load, the logic-leakage and clock-pin-capacitance sums, and each SRAM
// macro's MacroPower. analyze() is then one pass over flat arrays. It does
// the same multiply-adds in the same order as computing everything per
// call, so its reports are bit-identical to that.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "charlib/library.hpp"
#include "gatesim/activity.hpp"
#include "netlist/netlist.hpp"
#include "sram/sram.hpp"
#include "sta/sta.hpp"

namespace cryo::power {

struct ActivityProfile {
  double clock_frequency = 1e9;  // [Hz]
  // Toggle probability per cycle for gates whose instance name starts
  // with the given prefix; longest match wins.
  std::map<std::string, double> unit_activity;
  double default_activity = 0.05;
  // SRAM accesses per cycle, by macro-name prefix (e.g. "l1d" -> 0.3).
  std::map<std::string, double> sram_reads_per_cycle;
  std::map<std::string, double> sram_writes_per_cycle;
};

struct PowerReport {
  double dynamic_logic = 0.0;   // [W] switching incl. clock tree
  double dynamic_sram = 0.0;    // [W] SRAM access energy
  double dynamic_glitch = 0.0;  // [W] cancelled-pulse partial swings
                                //     (measured-activity path only)
  double leakage_logic = 0.0;   // [W]
  double leakage_sram = 0.0;    // [W]

  double dynamic() const {
    return dynamic_logic + dynamic_sram + dynamic_glitch;
  }
  double leakage() const { return leakage_logic + leakage_sram; }
  double total() const { return dynamic() + leakage(); }
};

class PowerAnalyzer {
 public:
  // Builds an STA engine for net loads and each gate's resolved cell; it
  // is dropped once the per-gate energies are computed.
  PowerAnalyzer(const netlist::Netlist& netlist,
                const charlib::Library& library,
                const sram::SramModel& sram_model,
                sta::StaOptions sta_options = {});

  // Borrows an already-built STA engine instead (the flow's per-corner
  // engine cache uses this). Only the constructor reads the library, the
  // SRAM model and the engine; the netlist must outlive the analyzer.
  PowerAnalyzer(const netlist::Netlist& netlist,
                const charlib::Library& library,
                const sram::SramModel& sram_model,
                const sta::StaEngine& engine);

  PowerReport analyze(const ActivityProfile& profile) const;

  // Workload-accurate dynamic power from measured per-net activity (the
  // gatesim ActivityExtractor's output): each gate's switching energy is
  // weighted by its output net's *measured* toggles per cycle instead of
  // a per-unit probability, inertially cancelled glitches contribute a
  // half-swing pulse energy, and SRAM access rates are the measured
  // per-macro read/write rates. Leakage terms are identical to the
  // uniform path (state-independent here).
  PowerReport analyze(const gatesim::MeasuredActivity& activity) const;

 private:
  // A connected output pin and its mean switching energy per toggle.
  struct OutputEnergy {
    netlist::NetId net;
    double energy;  // [J]
  };

  const netlist::Netlist& nl_;
  double vdd_;
  // Mean switching energy per output toggle over all of a gate's
  // connected outputs' arcs, per gate [J] (uniform path).
  std::vector<double> gate_energy_;
  // The same per connected output, in gate order (measured path).
  std::vector<OutputEnergy> outputs_;
  double leakage_logic_ = 0.0;  // [W]
  // Sequential clock-pin capacitance plus the clock net's wire load [F];
  // set only when the netlist has a clock.
  std::optional<double> clock_load_;
  std::vector<sram::MacroPower> macros_;  // per nl_.srams() entry
  double leakage_sram_ = 0.0;             // [W]
};

}  // namespace cryo::power
