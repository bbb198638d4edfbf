#include "liberty/interp.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/corner.hpp"
#include "core/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cryo::liberty {
namespace {

using charlib::CellChar;
using charlib::Library;
using charlib::NldmArc;

[[noreturn]] void fail(const std::string& detail) {
  throw core::FlowError("interp", "", detail);
}

// Identity of a timing arc inside a cell (the quarantine machinery drops
// failed arcs from the table list, so arcs match across anchors by this
// tuple, not by index).
struct ArcKey {
  std::string input;
  std::string output;
  bool input_rise;
  bool output_rise;

  friend bool operator==(const ArcKey& a, const ArcKey& b) {
    return a.input == b.input && a.output == b.output &&
           a.input_rise == b.input_rise && a.output_rise == b.output_rise;
  }
};

ArcKey key_of(const NldmArc& arc) {
  return {arc.input, arc.output, arc.input_rise, arc.output_rise};
}

// Mirrors charlib's arc_label() ("CELL:IN_rise->OUT_fall"), the form
// failed_arcs / quarantined_arcs record.
std::string arc_label(const std::string& cell_name, const ArcKey& key) {
  return cell_name + ":" + key.input + (key.input_rise ? "_rise" : "_fall") +
         "->" + key.output + (key.output_rise ? "_rise" : "_fall");
}

const NldmArc* find_arc(const CellChar& cell, const ArcKey& key) {
  for (const NldmArc& arc : cell.arcs)
    if (key_of(arc) == key) return &arc;
  return nullptr;
}

bool in_failed(const CellChar& cell, const std::string& label) {
  return std::find(cell.failed_arcs.begin(), cell.failed_arcs.end(), label) !=
         cell.failed_arcs.end();
}

// The arc identities every anchor must account for (present, or
// quarantined) in one cell: first-anchor declaration order, then any
// extras in anchor order, so the synthesized arc list is deterministic.
std::vector<ArcKey> arc_union(
    const std::vector<std::shared_ptr<const Library>>& anchors,
    std::size_t cell_index) {
  std::vector<ArcKey> keys;
  for (const auto& anchor : anchors) {
    for (const NldmArc& arc : anchor->cells[cell_index].arcs) {
      const ArcKey key = key_of(arc);
      if (std::find(keys.begin(), keys.end(), key) == keys.end())
        keys.push_back(key);
    }
  }
  return keys;
}

// Structural agreement between two libraries of the same family. `what`
// names the candidate in error messages ("anchor 2 (cryo5_150k)").
void validate_same_topology(const Library& ref, const Library& lib,
                            const std::string& what) {
  if (ref.vdd != lib.vdd)
    fail(what + " has vdd " + core::corner_detail::shortest(lib.vdd) +
         ", expected " + core::corner_detail::shortest(ref.vdd));
  if (ref.slew_grid != lib.slew_grid)
    fail(what + " has a different slew grid");
  if (ref.load_grid != lib.load_grid)
    fail(what + " has a different load grid");
  if (ref.cells.size() != lib.cells.size())
    fail(what + " has " + std::to_string(lib.cells.size()) +
         " cells, expected " + std::to_string(ref.cells.size()));
  for (std::size_t c = 0; c < ref.cells.size(); ++c) {
    const CellChar& rc = ref.cells[c];
    const CellChar& lc = lib.cells[c];
    if (rc.def.name != lc.def.name)
      fail(what + " cell " + std::to_string(c) + " is " + lc.def.name +
           ", expected " + rc.def.name);
    if (rc.pin_caps.size() != lc.pin_caps.size())
      fail(what + " cell " + rc.def.name + " has " +
           std::to_string(lc.pin_caps.size()) + " input pins, expected " +
           std::to_string(rc.pin_caps.size()));
    for (std::size_t p = 0; p < rc.pin_caps.size(); ++p)
      if (rc.pin_caps[p].first != lc.pin_caps[p].first)
        fail(what + " cell " + rc.def.name + " pin " +
             std::to_string(p) + " is " + lc.pin_caps[p].first +
             ", expected " + rc.pin_caps[p].first);
    if (rc.leakage.size() != lc.leakage.size())
      fail(what + " cell " + rc.def.name + " has " +
           std::to_string(lc.leakage.size()) + " leakage states, expected " +
           std::to_string(rc.leakage.size()));
    for (std::size_t s = 0; s < rc.leakage.size(); ++s)
      if (rc.leakage[s].pattern != lc.leakage[s].pattern)
        fail(what + " cell " + rc.def.name + " leakage state " +
             std::to_string(s) + " has pattern " +
             std::to_string(lc.leakage[s].pattern) + ", expected " +
             std::to_string(rc.leakage[s].pattern));
    // Arc lists may differ only by quarantine: an arc absent from one
    // library must be in ITS failed list, or the two are genuinely
    // different cells.
    for (const NldmArc& arc : rc.arcs) {
      const ArcKey key = key_of(arc);
      if (!find_arc(lc, key) && !in_failed(lc, arc_label(rc.def.name, key)))
        fail(what + " cell " + rc.def.name + " is missing arc " +
             arc_label(rc.def.name, key) + " (and did not quarantine it)");
    }
    for (const NldmArc& arc : lc.arcs) {
      const ArcKey key = key_of(arc);
      if (!find_arc(rc, key) && !in_failed(rc, arc_label(rc.def.name, key)))
        fail(what + " cell " + rc.def.name + " has extra arc " +
             arc_label(rc.def.name, key));
    }
  }
}

double lerp(double a, double b, double t) { return a * (1.0 - t) + b * t; }

Table2D lerp_table(const Table2D& lo, const Table2D& hi, double t) {
  Table2D out(lo.axis1(), lo.axis2());
  for (std::size_t i = 0; i < lo.rows(); ++i)
    for (std::size_t j = 0; j < lo.cols(); ++j)
      out.at(i, j) = lerp(lo.at(i, j), hi.at(i, j), t);
  return out;
}

}  // namespace

InterpLibrary::InterpLibrary(
    std::vector<std::shared_ptr<const charlib::Library>> anchors)
    : anchors_(std::move(anchors)) {
  if (anchors_.empty()) fail("anchor set is empty");
  for (std::size_t i = 0; i < anchors_.size(); ++i) {
    if (!anchors_[i]) fail("anchor " + std::to_string(i) + " is null");
    temps_.push_back(anchors_[i]->temperature);
  }
  for (std::size_t i = 1; i < temps_.size(); ++i) {
    if (temps_[i] <= temps_[i - 1])
      fail("anchor temperatures must be strictly ascending (anchor " +
           std::to_string(i) + " at " +
           core::corner_detail::shortest(temps_[i]) + " K follows " +
           core::corner_detail::shortest(temps_[i - 1]) + " K)");
  }
  const Library& ref = *anchors_.front();
  for (std::size_t i = 1; i < anchors_.size(); ++i)
    validate_same_topology(ref, *anchors_[i],
                           "anchor " + std::to_string(i) + " (" +
                               anchors_[i]->name + ")");
}

charlib::Library InterpLibrary::at(double temperature,
                                   std::string name) const {
  OBS_SPAN("interp.synthesize");
  static obs::Counter& synthesized =
      obs::registry().counter("interp.libraries");
  static obs::Counter& extrapolations =
      obs::registry().counter("interp.extrapolations");

  // Clamp-with-counter outside the anchor span: the synthesized values
  // freeze at the nearest anchor instead of extrapolating into a regime
  // no anchor measured.
  double t_eff = temperature;
  if (t_eff < temps_.front() || t_eff > temps_.back()) {
    extrapolations.add(1);
    t_eff = std::clamp(t_eff, temps_.front(), temps_.back());
  }
  std::size_t seg = 0;
  if (temps_.size() > 1) {
    seg = temps_.size() - 2;
    while (seg > 0 && temps_[seg] > t_eff) --seg;
  }
  const Library& lo = *anchors_[seg];
  const Library& hi = *anchors_[std::min(seg + 1, anchors_.size() - 1)];
  const double span = hi.temperature - lo.temperature;
  const double t = span > 0.0 ? (t_eff - lo.temperature) / span : 0.0;

  Library out;
  out.name = name.empty() ? anchors_.front()->name + "_interp"
                          : std::move(name);
  out.temperature = temperature;
  out.vdd = lo.vdd;
  out.slew_grid = lo.slew_grid;
  out.load_grid = lo.load_grid;
  out.cells.reserve(lo.cells.size());

  for (std::size_t c = 0; c < lo.cells.size(); ++c) {
    const CellChar& clo = lo.cells[c];
    const CellChar& chi = hi.cells[c];
    CellChar cell;
    cell.def = clo.def;
    cell.pin_caps = clo.pin_caps;
    for (std::size_t p = 0; p < cell.pin_caps.size(); ++p)
      cell.pin_caps[p].second =
          lerp(clo.pin_caps[p].second, chi.pin_caps[p].second, t);
    cell.leakage = clo.leakage;
    for (std::size_t s = 0; s < cell.leakage.size(); ++s)
      cell.leakage[s].watts =
          lerp(clo.leakage[s].watts, chi.leakage[s].watts, t);
    cell.leakage_avg = lerp(clo.leakage_avg, chi.leakage_avg, t);
    cell.setup_time = lerp(clo.setup_time, chi.setup_time, t);
    cell.hold_time = lerp(clo.hold_time, chi.hold_time, t);

    // An arc interpolates only when EVERY anchor characterized it; one
    // quarantined anchor poisons the whole temperature axis for that arc
    // (its missing tables would otherwise silently pin the interpolation
    // to whichever anchors survived).
    for (const ArcKey& key : arc_union(anchors_, c)) {
      const NldmArc* alo = find_arc(clo, key);
      const NldmArc* ahi = find_arc(chi, key);
      bool everywhere = alo && ahi;
      for (const auto& anchor : anchors_)
        everywhere = everywhere && find_arc(anchor->cells[c], key);
      if (everywhere) {
        NldmArc arc;
        arc.input = key.input;
        arc.output = key.output;
        arc.input_rise = key.input_rise;
        arc.output_rise = key.output_rise;
        arc.delay = lerp_table(alo->delay, ahi->delay, t);
        arc.output_slew = lerp_table(alo->output_slew, ahi->output_slew, t);
        arc.energy = lerp_table(alo->energy, ahi->energy, t);
        cell.arcs.push_back(std::move(arc));
      } else {
        cell.failed_arcs.push_back(arc_label(cell.def.name, key));
      }
    }
    out.cells.push_back(std::move(cell));
  }

  for (const CellChar& cell : out.cells)
    out.quarantined_arcs.insert(out.quarantined_arcs.end(),
                                cell.failed_arcs.begin(),
                                cell.failed_arcs.end());
  synthesized.add(1);
  return out;
}

// ---- Interpolation-error validation --------------------------------------

namespace {

double table_scale(const Table2D& t) {
  double scale = 0.0;
  for (double v : t.values()) scale = std::max(scale, std::abs(v));
  return scale;
}

double table_rel_error(const Table2D& ref, const Table2D& cand) {
  const double floor = 0.05 * table_scale(ref);
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.rows(); ++i)
    for (std::size_t j = 0; j < ref.cols(); ++j) {
      const double denom = std::max(std::abs(ref.at(i, j)), floor);
      if (denom <= 0.0) continue;  // both scales zero: nothing to compare
      worst = std::max(worst, std::abs(cand.at(i, j) - ref.at(i, j)) / denom);
    }
  return worst;
}

double scalar_rel_error(double ref, double cand, double category_scale) {
  const double denom = std::max(std::abs(ref), 0.05 * category_scale);
  if (denom <= 0.0) return 0.0;
  return std::abs(cand - ref) / denom;
}

}  // namespace

LibraryDelta compare_libraries(const charlib::Library& reference,
                               const charlib::Library& candidate) {
  validate_same_topology(reference, candidate,
                         "candidate (" + candidate.name + ")");
  LibraryDelta delta;

  // Category scales for the scalar comparisons.
  double cap_scale = 0.0, leak_scale = 0.0, constraint_scale = 0.0;
  for (const CellChar& cell : reference.cells) {
    for (const auto& [pin, cap] : cell.pin_caps)
      cap_scale = std::max(cap_scale, std::abs(cap));
    for (const auto& state : cell.leakage)
      leak_scale = std::max(leak_scale, std::abs(state.watts));
    constraint_scale = std::max({constraint_scale, std::abs(cell.setup_time),
                                 std::abs(cell.hold_time)});
  }

  const auto record = [&](const std::string& label, double rel, double* cat) {
    *cat = std::max(*cat, rel);
    if (rel > delta.max_rel) {
      delta.max_rel = rel;
      delta.worst_table = label;
    }
  };

  for (std::size_t c = 0; c < reference.cells.size(); ++c) {
    const CellChar& rc = reference.cells[c];
    const CellChar& cc = candidate.cells[c];
    for (std::size_t p = 0; p < rc.pin_caps.size(); ++p)
      record(rc.def.name + ":pin_cap:" + rc.pin_caps[p].first,
             scalar_rel_error(rc.pin_caps[p].second, cc.pin_caps[p].second,
                              cap_scale),
             &delta.max_pin_cap_rel);
    for (std::size_t s = 0; s < rc.leakage.size(); ++s)
      record(rc.def.name + ":leakage:" + std::to_string(rc.leakage[s].pattern),
             scalar_rel_error(rc.leakage[s].watts, cc.leakage[s].watts,
                              leak_scale),
             &delta.max_leakage_rel);
    if (rc.def.sequential) {
      record(rc.def.name + ":setup",
             scalar_rel_error(rc.setup_time, cc.setup_time, constraint_scale),
             &delta.max_constraint_rel);
      record(rc.def.name + ":hold",
             scalar_rel_error(rc.hold_time, cc.hold_time, constraint_scale),
             &delta.max_constraint_rel);
    }
    for (const NldmArc& ref_arc : rc.arcs) {
      const NldmArc* cand_arc = find_arc(cc, key_of(ref_arc));
      if (!cand_arc) continue;  // quarantined on the candidate side
      const std::string base = arc_label(rc.def.name, key_of(ref_arc));
      const auto table = [&](const char* kind, const Table2D& r,
                             const Table2D& x, double* cat) {
        TableError e{base + ":" + kind, table_rel_error(r, x)};
        record(e.label, e.max_rel, cat);
        delta.tables.push_back(std::move(e));
      };
      table("delay", ref_arc.delay, cand_arc->delay, &delta.max_delay_rel);
      table("slew", ref_arc.output_slew, cand_arc->output_slew,
            &delta.max_slew_rel);
      table("energy", ref_arc.energy, cand_arc->energy,
            &delta.max_energy_rel);
    }
  }
  return delta;
}

}  // namespace cryo::liberty
