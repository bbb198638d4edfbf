// Standard-cell library characterization engine (the PrimeLib stand-in).
//
// For every cell and every timing arc, stimuli are generated with the side
// inputs at their non-controlling values, the arc input driven with a
// linear ramp, and the output loaded with a capacitor; the SPICE engine
// simulates each (input slew x output load) grid point and the measured
// delay / output slew / switching energy fill the NLDM tables. Leakage is
// measured per static input state; sequential cells additionally get
// clock-to-output arcs and setup/hold constraints found by bisection.
//
// Throughput structure: characterization is embarrassingly parallel at
// the arc x (slew, load) grid level, so characterize_all flattens the
// work into (cell-prep, arc-grid, setup/hold) units fanned over
// cryo::exec in two waves (arc energy needs the cell's leakage, measured
// in wave one), with spice::SolveContexts checked out of an exec::Pool
// per unit. Each arc unit builds its transistor circuit and spice::Engine
// once and replays the whole grid by swapping the stimulus waveform and
// load capacitance in place, so the MNA skeleton, stamp-slot lists, and
// solver workspaces are constructed once per (cell, arc) instead of once
// per grid point. Results merge in (cell, arc declaration) order, so the
// library — and every Liberty artifact rendered from it — is
// byte-identical at any thread count.
//
// Wave two runs in bands. An optional priority set (the cells one query
// reads, e.g. a netlist's) makes its cells' units a first band; the moment
// they merge, a publish hook receives a library of just those cells, and
// the rest of the catalog runs after. Within each band the longest units
// start first (setup/hold bisections, then arcs of larger cells), which
// shortens the tail. Only the execution order moves: the unit list, the
// counters and the merge order are the same with or without a priority
// set, so the returned library is too.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cells/celldef.hpp"
#include "charlib/library.hpp"
#include "device/ids_cache.hpp"
#include "device/modelcard.hpp"
#include "spice/circuit.hpp"

namespace cryo::spice {
class SolveContext;
}  // namespace cryo::spice

namespace cryo::charlib {

// Pattern bit order shared by leakage measurement and arc stimuli: bit i
// of a LeakageState::pattern is pins[i] held high, where pins lists the
// data inputs in characterization order followed by the clock/enable pin
// for sequential cells. One definition, used by measure_leakage to
// enumerate states and by the arc stimuli to look states up, so the two
// can never disagree on bit order (the arc path asserts the measured
// pattern space matches this pin list).
std::vector<std::string> leakage_pattern_pins(const cells::CellDef& cell);

struct CharOptions {
  double temperature = 300.0;  // [K]
  double vdd = 0.7;            // [V]
  // 7x7 NLDM grid like the paper's flow; tests shrink these.
  std::vector<double> slews = {1e-12, 2e-12, 4e-12, 8e-12,
                               16e-12, 32e-12, 64e-12};
  std::vector<double> loads = {0.25e-15, 0.5e-15, 1e-15, 2e-15,
                               4e-15, 8e-15, 16e-15};
  bool characterize_setup_hold = true;
  // Worker threads for characterize_all: > 0 explicit, 0 = defer to the
  // CRYOSOC_THREADS environment variable / hardware concurrency (see
  // exec::thread_count).
  int threads = 0;
};

class Characterizer {
 public:
  // Modelcards are the calibrated LVT devices; SLVT variants are derived
  // by the work-function shift in cells::kSlvtWorkFunctionDelta.
  Characterizer(device::ModelCard nmos, device::ModelCard pmos,
                CharOptions options);

  // Characterizes a single cell (serially; byte-identical to the same
  // cell's slice of a characterize_all run).
  CellChar characterize(const cells::CellDef& cell) const;

  // Receives the priority cells' library (see characterize_all).
  using Publish = std::function<void(Library)>;

  // Characterizes a set of cells into a library, arc-parallel over
  // cryo::exec (see the file comment for the task structure). The units
  // of the cells `priority` names run first; with a non-empty `priority`,
  // `publish` (if set) is called once, from the task that finishes the
  // last of them, with a library of just those cells (same name,
  // temperature, vdd and grids; cells in `cells` order; names `cells`
  // lacks are skipped), each cell bit-identical to its slice of the
  // returned library. A throw from `publish` fails the call like a
  // throwing unit.
  Library characterize_all(std::span<const cells::CellDef> cells,
                           const std::string& library_name,
                           std::span<const std::string> priority = {},
                           const Publish& publish = {}) const;

  const CharOptions& options() const { return options_; }

 private:
  struct ArcPoint {
    double delay = 0.0;
    double output_slew = 0.0;
    double energy = 0.0;
  };

  // One batched (cell, arc) work unit: the transistor circuit and the
  // spice::Engine on top of it are built once, then every (slew, load)
  // stimulus of the grid is replayed by mutating the drive waveform and
  // the load capacitance in place (values only — the topology, and with
  // it every Engine precomputation, is frozen). Defined in the .cpp; it
  // lives on a task's stack and is deliberately non-copyable because the
  // engine holds a reference into the batch's circuit.
  struct ArcBatch;

  // Result of one (cell, arc) unit: the filled NLDM tables, or ok=false
  // when a grid point failed even the relaxed retry (the arc is then
  // quarantined as a whole — a partially filled table would interpolate
  // garbage).
  struct ArcOutcome {
    NldmArc tables;
    bool ok = true;
  };

  // Builds the transistor-level circuit of a cell with tabulated-current
  // caches attached to every device.
  spice::Circuit cell_circuit(
      const cells::CellDef& cell,
      const std::vector<std::pair<std::string, spice::Waveform>>& drives,
      const std::string& load_pin, double load_farads) const;

  // Per-cell prep unit (wave one of characterize_all): cell metadata,
  // input pin capacitances, and the per-pattern leakage states every
  // combinational arc's energy correction reads.
  void prep_cell(const cells::CellDef& cell, CellChar& out,
                 spice::SolveContext& ctx) const;

  // Whole-grid (cell, arc) unit: one batch, all (slew, load) stimuli,
  // with the per-point relaxed retry and quarantine-on-failure semantics.
  ArcOutcome characterize_arc(const cells::CellDef& cell,
                              const cells::TimingArc& arc,
                              const std::vector<LeakageState>& leakage,
                              spice::SolveContext& ctx) const;

  // Batch construction for combinational and clock->output arcs. The
  // `ctx` threads the caller's solver workspaces through every stimulus
  // of the batch, so after the first point warms the buffers the rest of
  // the grid runs allocation-free. One context per work unit keeps the
  // arc-level parallelism data-race free.
  void init_arc_batch(ArcBatch& batch, const cells::CellDef& cell,
                      const cells::TimingArc& arc,
                      spice::SolveContext& ctx) const;
  void init_clk_batch(ArcBatch& batch, const cells::CellDef& cell,
                      const cells::TimingArc& arc,
                      spice::SolveContext& ctx) const;

  // Simulates one combinational arc stimulus on a batch. `relaxed` is the
  // last-chance retry configuration: larger NR budget, looser LTE
  // acceptance, and more settle-window extensions.
  ArcPoint simulate_arc_point(ArcBatch& batch, const cells::CellDef& cell,
                              const cells::TimingArc& arc, double slew,
                              double load,
                              const std::vector<LeakageState>& leakage,
                              bool relaxed) const;
  // Simulates one clock->output stimulus of a sequential cell on a batch.
  ArcPoint simulate_clk_point(ArcBatch& batch, const cells::CellDef& cell,
                              const cells::TimingArc& arc, double slew,
                              double load, bool relaxed) const;

  std::vector<LeakageState> measure_leakage(const cells::CellDef& cell,
                                            spice::SolveContext& ctx) const;
  double find_setup(const cells::CellDef& cell,
                    spice::SolveContext& ctx) const;
  double find_hold(const cells::CellDef& cell,
                   spice::SolveContext& ctx) const;

  device::ModelCard nmos_;
  device::ModelCard pmos_;
  CharOptions options_;
  // Tabulated currents per (polarity, flavor): [n_lvt, p_lvt, n_slvt,
  // p_slvt]. Built once at construction, shared by all device instances.
  std::shared_ptr<const device::IdsCache> caches_[4];
};

}  // namespace cryo::charlib
