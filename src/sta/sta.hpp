// Static timing analysis: the PrimeTime stand-in.
//
// Graph-based worst-case analysis over a gate-level netlist with NLDM
// lookups: levelize the combinational gates, propagate arrival times and
// worst slews from launch points (primary inputs, flop Q pins, SRAM data
// outputs) to capture points (flop D pins, SRAM inputs, primary outputs),
// add a fanout-based wire-load model, and report the critical path with
// the maximum achievable clock frequency.
#pragma once

#include <string>
#include <vector>

#include "charlib/library.hpp"
#include "netlist/netlist.hpp"
#include "sram/sram.hpp"

namespace cryo::sta {

struct StaOptions {
  double primary_input_slew = 10e-12;   // [s]
  double primary_output_load = 2e-15;   // [F]
  double wire_cap_per_fanout = 1.2e-15; // [F] wire-load model
  double wire_delay_per_fanout = 3e-12; // [s] added per sink
  double clock_slew = 8e-12;            // [s] at flop clock pins
  double clock_uncertainty = 20e-12;    // [s] subtracted from the period
};

struct PathStep {
  std::string instance;  // gate or macro name ("<input>" for launch)
  std::string cell;
  std::string through;   // net name at this step's output
  double delay = 0.0;    // incremental [s]
  double arrival = 0.0;  // cumulative [s]
};

struct TimingReport {
  double critical_delay = 0.0;   // worst launch->capture delay + setup [s]
  double fmax = 0.0;             // 1 / (critical_delay + uncertainty) [Hz]
  // Min path delay minus hold requirement [s]. Only meaningful when
  // has_hold_endpoints is true; otherwise normalized to 0.0 so the +1e30
  // sentinel never leaks into reports or bench JSON.
  double worst_hold_slack = 0.0;
  bool has_hold_endpoints = false;
  std::vector<PathStep> critical_path;
  std::size_t endpoint_count = 0;
  std::string critical_endpoint;
};

class StaEngine {
 public:
  StaEngine(const netlist::Netlist& netlist, const charlib::Library& library,
            const sram::SramModel& sram_model, StaOptions options = {});

  TimingReport run() const;

  // Capacitive load on a net (pins + wire model); exposed for the sizing
  // pass and power analysis.
  double net_load(netlist::NetId net) const;

  // The library cell of gate `gate` (an index into the netlist's gates()),
  // resolved once by the constructor; power analysis reuses it.
  const charlib::CellChar& gate_cell(std::size_t gate) const {
    return *cells_[gate];
  }

 private:
  const netlist::Netlist& nl_;
  const sram::SramModel& sram_;
  StaOptions opt_;

  std::vector<const charlib::CellChar*> cells_;  // per gate

  // Fanout pin lists per net, built once.
  struct Sink {
    int gate = -1;  // index into gates(); -1 for macro/PO sinks
    std::string pin;
  };
  std::vector<std::vector<Sink>> sinks_;
  std::vector<double> loads_;
};

}  // namespace cryo::sta
