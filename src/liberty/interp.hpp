// Temperature-interpolated NLDM libraries.
//
// The characterization wall makes every new temperature expensive: a dense
// fmax-vs-T sweep at SPICE fidelity pays a full library build per point.
// InterpLibrary turns temperature into a continuum the way the cryo-CMOS
// modeling literature does (arXiv 2211.05309, 2502.02685): characterize a
// small set of anchor corners once (10/77/150/300 K by default), then
// synthesize a complete charlib::Library at ANY temperature by
// piecewise-linear interpolation — every NLDM table entry (delay, output
// slew, energy), every input pin capacitance, every per-pattern leakage
// state, and the sequential setup/hold constraints are interpolated
// between the two bracketing anchors. The synthesized library is
// structurally identical to a characterized one, so STA, power analysis,
// gate simulation, and the sweep engine consume it unchanged.
//
// This is a read-side layer only: anchors come from the fingerprinted
// artifact store (or an in-memory characterization) and nothing here is
// ever written back, so committed artifacts at discrete corners stay
// byte-identical.
//
// Anchor policy:
//  - >= 1 anchor, strictly ascending temperatures, one shared vdd, one
//    shared cell/arc topology (cell names/order, pin caps, leakage
//    patterns, table grids), all compared exactly. Violations throw
//    core::FlowError{stage="interp"} naming the offending anchor. An
//    anchor's temperature is the one its library records, which for a
//    characterized corner is its artifact's six digits: two anchors the
//    artifact cannot tell apart are not ascending.
//  - An arc quarantined at ANY anchor stays quarantined in every
//    synthesized library (its bracketing tables are incomplete, so an
//    interpolated table would be garbage); quarantine labels are the
//    union across anchors, in cell order.
//  - Temperatures outside the anchor span clamp to the nearest anchor and
//    count on the obs counter `interp.extrapolations` (clamping is safer
//    than linear extrapolation: device behavior below the coldest anchor
//    is exactly the regime the anchors exist to pin down).
//
// Error-bound methodology: validation characterizes held-out temperatures
// directly and reports the per-table maximum relative error of the
// interpolated library against the direct one (compare_libraries below);
// bench/interp_accuracy gates the delay bound (BenchReport::gate).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "charlib/library.hpp"

namespace cryo::liberty {

class InterpLibrary {
 public:
  // Validates and adopts the anchor set; throws
  // core::FlowError{stage="interp"} on an empty set, unsorted / duplicate
  // temperatures, mixed vdd, mismatched grids, or mismatched cell
  // topology.
  explicit InterpLibrary(
      std::vector<std::shared_ptr<const charlib::Library>> anchors);

  // Synthesizes a full library at `temperature`. The library's recorded
  // temperature is the requested one (its identity from the caller's
  // perspective), even when the value interpolation clamped to the anchor
  // span. `name` defaults to "<first-anchor-name>_interp".
  charlib::Library at(double temperature, std::string name = "") const;

  const std::vector<double>& anchor_temperatures() const { return temps_; }
  double vdd() const { return anchors_.front()->vdd; }
  std::size_t anchor_count() const { return anchors_.size(); }

 private:
  std::vector<std::shared_ptr<const charlib::Library>> anchors_;
  std::vector<double> temps_;
};

// ---- Interpolation-error validation --------------------------------------
//
// compare_libraries() measures an interpolated (or otherwise approximated)
// library against a directly characterized reference of the same topology
// (validated like the anchor set). For every NLDM table it reports the
// maximum entry-wise relative error
//
//   max over entries of |cand - ref| / max(|ref|, 0.05 * table_scale)
//
// where table_scale is the largest |entry| of the reference table; the
// floor keeps near-zero entries (energies cross zero) from exploding the
// ratio while still normalizing dominant entries by their own magnitude.
// Scalars (pin caps, leakage states, setup/hold) are compared the same
// way with their category's scale.

struct TableError {
  std::string label;     // "INV_X1:A_fall->Z_rise:delay"
  double max_rel = 0.0;  // worst entry of this table
};

struct LibraryDelta {
  // Per-category worst errors over the whole library.
  double max_delay_rel = 0.0;
  double max_slew_rel = 0.0;
  double max_energy_rel = 0.0;
  double max_pin_cap_rel = 0.0;
  double max_leakage_rel = 0.0;
  double max_constraint_rel = 0.0;
  // Worst table overall and its label.
  double max_rel = 0.0;
  std::string worst_table;
  // Every NLDM table's error, in library (cell, arc) order.
  std::vector<TableError> tables;
};

LibraryDelta compare_libraries(const charlib::Library& reference,
                               const charlib::Library& candidate);

}  // namespace cryo::liberty
