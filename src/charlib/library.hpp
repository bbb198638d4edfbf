// In-memory standard-cell library model (the contents of a Liberty file).
//
// Produced by the Characterizer, serialized by cryo::liberty, consumed by
// synthesis, STA, gate-level simulation, and power analysis. All values
// are SI (seconds, farads, joules, watts); the Liberty writer converts to
// customary library units (ns, pF, pJ, nW).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cells/celldef.hpp"
#include "common/table.hpp"

namespace cryo::charlib {

// One characterized NLDM timing arc.
struct NldmArc {
  std::string input;
  std::string output;
  bool input_rise = true;
  bool output_rise = true;
  Table2D delay;        // [s], axis1 = input slew, axis2 = output load
  Table2D output_slew;  // [s]
  Table2D energy;       // [J] supply energy per transition (incl. load)
};

// Leakage power for one static input pattern.
struct LeakageState {
  std::uint32_t pattern = 0;
  double watts = 0.0;
};

struct CellChar {
  cells::CellDef def;  // keeps function/pins/topology metadata together
  std::vector<std::pair<std::string, double>> pin_caps;  // input pin -> F
  std::vector<NldmArc> arcs;
  std::vector<LeakageState> leakage;
  double leakage_avg = 0.0;  // W, mean over input patterns
  // Sequential constraints [s] (zero for combinational cells).
  double setup_time = 0.0;
  double hold_time = 0.0;
  // Arcs that failed characterization even after the relaxed retry, as
  // "CELL:IN_rise->OUT_fall" labels. A non-empty list means the cell's
  // arc tables are incomplete and the library must not be cached.
  std::vector<std::string> failed_arcs;

  double pin_cap(const std::string& pin) const;
  // Worst (max over arcs, at given slew/load) propagation delay.
  double worst_delay(double slew, double load) const;
};

struct Library {
  std::string name;
  double temperature = 300.0;  // [K]
  double vdd = 0.7;            // [V]
  std::vector<double> slew_grid;  // characterization input slews [s]
  std::vector<double> load_grid;  // characterization loads [F]
  std::vector<CellChar> cells;
  // Union of every cell's failed_arcs, in cell order (deterministic at
  // any thread count). Recorded in the artifact manifest so a library
  // characterized with failures is never mistaken for a complete one.
  std::vector<std::string> quarantined_arcs;

  // Linear scans by name, for one-off lookups; a pass over a netlist
  // resolves its cells through a CellIndex instead.
  const CellChar* find(const std::string& cell_name) const;
  const CellChar& at(const std::string& cell_name) const;
};

// Name -> cell map over one library, built once so that a pass over every
// gate of a netlist does not scan the cell list per gate. It borrows the
// library, which must outlive it with its cells unchanged. Resolves
// exactly as Library::at does (the first cell of a name wins).
class CellIndex {
 public:
  explicit CellIndex(const Library& library);

  // Throws std::out_of_range for a name the library does not have.
  const CellChar& at(const std::string& cell_name) const;

 private:
  std::unordered_map<std::string_view, const CellChar*> cells_;
};

}  // namespace cryo::charlib
