#include "charlib/characterizer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "common/units.hpp"
#include "core/error.hpp"
#include "exec/exec.hpp"
#include "exec/pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spice/engine.hpp"

namespace cryo::charlib {
namespace {

// Slew is measured 10-90 %, so a full-swing linear ramp lasts slew / 0.8.
double ramp_of(double slew) { return slew / 0.8; }

// Supply energy drawn from vdd over the window [t_from, t_to]. The branch
// current convention has current flowing out of the positive node counted
// negative, so delivered power is -vdd * i.
double supply_energy(const spice::TranResult& result, double vdd,
                     double t_from, double t_to) {
  const spice::Trace i = result.source_current("vdd");
  double acc = 0.0;
  for (std::size_t k = 1; k < i.time.size(); ++k) {
    const double t0 = std::max(i.time[k - 1], t_from);
    const double t1 = std::min(i.time[k], t_to);
    if (t1 <= t0) continue;
    const double i0 = i.at(t0), i1 = i.at(t1);
    acc += 0.5 * (i0 + i1) * (t1 - t0);
  }
  return -vdd * acc;
}

double leakage_of(const std::vector<LeakageState>& states,
                  std::uint32_t pattern) {
  for (const auto& s : states)
    if (s.pattern == pattern) return s.watts;
  return 0.0;
}

// Last-chance solver configuration for an arc that failed at the default
// settings: a much larger NR budget and a looser local-error gate. The
// accuracy loss is acceptable — the alternative is no table entry at all.
spice::TranOptions relax(spice::TranOptions tran) {
  tran.max_nr_iterations *= 4;
  tran.lte_tol *= 10.0;
  return tran;
}

// Quarantine label: stable, human-greppable, and deterministic.
std::string arc_label(const cells::CellDef& cell,
                      const cells::TimingArc& arc) {
  return cell.name + ":" + arc.input + (arc.input_rise ? "_rise" : "_fall") +
         "->" + arc.output + (arc.output_rise ? "_rise" : "_fall");
}

obs::Counter& settle_retry_counter() {
  static obs::Counter& c = obs::registry().counter("charlib.settle_retries");
  return c;
}

obs::Counter& engine_reuse_counter() {
  static obs::Counter& c = obs::registry().counter("charlib.engine_reuse");
  return c;
}

}  // namespace

std::vector<std::string> leakage_pattern_pins(const cells::CellDef& cell) {
  // Static pins: data inputs plus, for sequentials, the clock/enable.
  std::vector<std::string> pins = cell.inputs;
  if (cell.sequential) pins.push_back(cell.clock);
  return pins;
}

// One batched (cell, arc) work unit (see the header declaration): the
// circuit and the engine on top of it are built once per arc; every grid
// stimulus then only swaps the drive waveform and the load capacitance in
// place. The engine holds a reference into `circuit`, so the batch is
// pinned to one stack frame and never copied or moved.
struct Characterizer::ArcBatch {
  ArcBatch() = default;
  ArcBatch(const ArcBatch&) = delete;
  ArcBatch& operator=(const ArcBatch&) = delete;

  spice::Circuit circuit;
  std::size_t drive_source = 0;  // vsource index of the switching pin
  std::size_t load_cap = 0;      // capacitor index of the output load
  std::uint32_t pat_init = 0;    // leakage pattern before the input edge
  std::uint32_t pat_final = 0;   // ... and after it completes
  std::uint64_t solves = 0;      // transients replayed on this engine
  std::optional<spice::Engine> engine;  // references `circuit`; built last
};

Characterizer::Characterizer(device::ModelCard nmos, device::ModelCard pmos,
                             CharOptions options)
    : nmos_(std::move(nmos)),
      pmos_(std::move(pmos)),
      options_(std::move(options)) {
  if (options_.slews.empty() || options_.loads.empty())
    throw std::invalid_argument("Characterizer: empty NLDM grid");
  // Non-positive grid values never made physical sense; now they would
  // also break the batched load-capacitor swap (a zero first load would
  // drop the element from the arc circuit entirely).
  for (double s : options_.slews)
    if (s <= 0.0)
      throw std::invalid_argument("Characterizer: slews must be positive");
  for (double l : options_.loads)
    if (l <= 0.0)
      throw std::invalid_argument("Characterizer: loads must be positive");
  // Tabulated currents for the four device variants (polarity x flavor),
  // built concurrently: each table is a pure function of (modelcard, T),
  // so the tables are the same at any thread count.
  exec::parallel_for(
      4,
      [&](std::size_t i) {
        const std::size_t f = i / 2, p = i % 2;
        device::ModelCard card = p == 0 ? nmos_ : pmos_;
        card.NFIN = 1;
        if (f == 1) card.PHIG += cells::kSlvtWorkFunctionDelta;
        caches_[i] = std::make_shared<device::IdsCache>(
            device::FinFet(card, options_.temperature));
      },
      options_.threads);
}

spice::Circuit Characterizer::cell_circuit(
    const cells::CellDef& cell,
    const std::vector<std::pair<std::string, spice::Waveform>>& drives,
    const std::string& load_pin, double load_farads) const {
  spice::Circuit circuit;
  circuit.add_vsource("vdd", "vdd", "0", spice::Waveform::dc(options_.vdd));
  for (const auto& [pin, wave] : drives)
    circuit.add_vsource("v_" + pin, pin, "0", wave);
  const int flavor = cell.flavor == cells::VtFlavor::kSlvt ? 1 : 0;
  for (const auto& t : cell.transistors) {
    device::ModelCard card =
        t.polarity == device::Polarity::kNmos ? nmos_ : pmos_;
    card.NFIN = t.fins;
    if (flavor == 1) card.PHIG += cells::kSlvtWorkFunctionDelta;
    device::FinFet fet(card, options_.temperature);
    fet.set_cache(
        caches_[flavor * 2 +
                (t.polarity == device::Polarity::kNmos ? 0 : 1)]);
    circuit.add_mosfet(t.name, t.drain, t.gate, t.source, fet);
  }
  if (!load_pin.empty() && load_farads > 0.0)
    circuit.add_capacitor(load_pin, "0", load_farads);
  return circuit;
}

std::vector<LeakageState> Characterizer::measure_leakage(
    const cells::CellDef& cell, spice::SolveContext& ctx) const {
  const std::vector<std::string> pins = leakage_pattern_pins(cell);
  // The state space is enumerated in a 32-bit pattern word; shifting past
  // it is undefined behavior (and 2^32 SPICE solves is not a
  // characterization plan). Fail structurally instead.
  if (pins.size() >= 32)
    throw core::FlowError(
        "characterize", /*path=*/"",
        "leakage state space overflow for cell " + cell.name + ": " +
            std::to_string(pins.size()) + " static pins (max 31)");
  const std::uint32_t patterns = 1u << pins.size();

  // Waveform for pin i under `pat`; called per pattern so only source
  // values change on the batched circuit below.
  const auto wave_for = [&](std::size_t i, std::uint32_t pat) {
    const double v = ((pat >> i) & 1u) ? options_.vdd : 0.0;
    if (cell.sequential && pins[i] == cell.clock) {
      // A bare DC solve can settle a sequential cell's keeper loop at
      // its metastable point, which reads as a huge crowbar current.
      // Instead, capture D with a clock pulse first, then bring the
      // clock to the pattern value and measure the settled current.
      return spice::Waveform::pwl({{0.0, 0.0},
                                   {10e-12, 0.0},
                                   {14e-12, options_.vdd},
                                   {110e-12, options_.vdd},
                                   {114e-12, 0.0},
                                   {200e-12, 0.0},
                                   {204e-12, v}});
    }
    return spice::Waveform::dc(v);
  };

  // One circuit + engine for the whole pattern space: patterns differ only
  // in source values, so the MNA skeleton, stamp-slot lists, and solver
  // workspaces are built once and every pattern after the first is a pure
  // re-solve.
  std::vector<std::pair<std::string, spice::Waveform>> drives;
  for (std::size_t i = 0; i < pins.size(); ++i)
    drives.emplace_back(pins[i], wave_for(i, 0));
  spice::Circuit circuit = cell_circuit(cell, drives, "", 0.0);
  std::vector<std::size_t> sources(pins.size());
  for (std::size_t i = 0; i < pins.size(); ++i)
    sources[i] = circuit.vsource_index("v_" + pins[i]);
  spice::Engine engine(circuit, &ctx);

  std::vector<LeakageState> out;
  for (std::uint32_t pat = 0; pat < patterns; ++pat) {
    if (pat != 0)
      for (std::size_t i = 0; i < pins.size(); ++i)
        circuit.set_vsource_wave(sources[i], wave_for(i, pat));
    if (cell.sequential) {
      spice::TranOptions tran;
      tran.t_stop = 450e-12;
      tran.dt_max = 8e-12;
      const auto result = engine.transient(tran);
      // The transient only settles the keeper loop into a valid state;
      // averaging its supply current would bury the static leakage under
      // integration noise. Re-solve DC from the settled state instead.
      const auto x =
          engine.dc_operating_point_from(result.final_state(), tran.t_stop);
      const double i_vdd = x[circuit.node_count()];
      out.push_back({pat, -options_.vdd * i_vdd});
    } else {
      const auto x = engine.dc_operating_point();
      // vdd is the first source; its branch current is x[n_nodes].
      const double i_vdd = x[circuit.node_count()];
      out.push_back({pat, -options_.vdd * i_vdd});
    }
  }
  if (patterns > 1) engine_reuse_counter().add(patterns - 1);
  return out;
}

void Characterizer::init_arc_batch(ArcBatch& batch,
                                   const cells::CellDef& cell,
                                   const cells::TimingArc& arc,
                                   spice::SolveContext& ctx) const {
  const double vdd = options_.vdd;
  // The stimulus iterates the SAME pin order as measure_leakage, so the
  // pattern bits computed here index the measured leakage states directly
  // — including the clock/enable bit of a sequential cell's combinational
  // arc (e.g. a transparent latch's D->Q), which the per-inputs-only
  // indexing used to drop.
  const std::vector<std::string> pins = leakage_pattern_pins(cell);
  std::vector<std::pair<std::string, spice::Waveform>> drives;
  batch.pat_init = 0;
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const std::string& pin = pins[i];
    if (pin == arc.input) {
      // Placeholder level; simulate_arc_point swaps in the real ramp
      // before any solve runs.
      drives.emplace_back(pin,
                          spice::Waveform::dc(arc.input_rise ? 0.0 : vdd));
      if (!arc.input_rise) batch.pat_init |= (1u << i);
    } else if (cell.sequential && pin == cell.clock) {
      // Clock/enable side value for a combinational arc through a
      // sequential cell; defaults low when the arc does not pin it.
      const auto it = arc.side_inputs.find(pin);
      const bool high = it != arc.side_inputs.end() && it->second;
      drives.emplace_back(pin, spice::Waveform::dc(high ? vdd : 0.0));
      if (high) batch.pat_init |= (1u << i);
    } else {
      const bool high = arc.side_inputs.at(pin);
      drives.emplace_back(pin, spice::Waveform::dc(high ? vdd : 0.0));
      if (high) batch.pat_init |= (1u << i);
    }
  }
  batch.pat_final = batch.pat_init;
  for (std::size_t i = 0; i < pins.size(); ++i)
    if (pins[i] == arc.input) batch.pat_final ^= (1u << i);

  batch.circuit =
      cell_circuit(cell, drives, arc.output, options_.loads.front());
  batch.drive_source = batch.circuit.vsource_index("v_" + arc.input);
  // cell_circuit appends the load capacitor last (loads are validated
  // positive at construction, so it is always present).
  batch.load_cap = batch.circuit.capacitors().size() - 1;
  batch.engine.emplace(batch.circuit, &ctx);
}

Characterizer::ArcPoint Characterizer::simulate_arc_point(
    ArcBatch& batch, const cells::CellDef& cell, const cells::TimingArc& arc,
    double slew, double load, const std::vector<LeakageState>& leakage,
    bool relaxed) const {
  const double vdd = options_.vdd;
  const double ramp = ramp_of(slew);
  const double start = 2e-12 + 0.5 * slew;
  const double v0 = arc.input_rise ? 0.0 : vdd;
  const double v1 = arc.input_rise ? vdd : 0.0;
  batch.circuit.set_vsource_wave(batch.drive_source,
                                 spice::Waveform::ramp(v0, v1, start, ramp));
  batch.circuit.set_capacitor_farads(batch.load_cap, load);
  spice::Engine& engine = *batch.engine;

  // Adaptive window: extend if the output has not settled. The window is
  // reset per stimulus (and per relax stage), so batching cannot leak a
  // widened window from one grid point into the next.
  double settle = 80e-12 + load * 2.5e4;
  ArcPoint point;
  const int max_attempts = relaxed ? 4 : 3;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) settle_retry_counter().add(1);
    spice::TranOptions tran;
    tran.t_stop = start + ramp + settle;
    tran.dt_max = 6e-12;
    if (relaxed) tran = relax(tran);
    const spice::TranResult result = engine.transient(tran);
    ++batch.solves;
    const spice::Trace out = result.node(arc.output);

    const double in50 = start + 0.5 * ramp;
    const double t_out = out.cross(0.5 * vdd, arc.output_rise, 0.0);
    const double o0 = arc.output_rise ? 0.0 : vdd;
    const double o1 = arc.output_rise ? vdd : 0.0;
    const double tslew = out.transition_time(o0, o1, 0.1, 0.9);
    const double v_end = out.value.back();
    const bool settled = arc.output_rise ? v_end > 0.93 * vdd
                                         : v_end < 0.07 * vdd;
    if (t_out > 0.0 && tslew > 0.0 && settled) {
      point.delay = t_out - in50;
      point.output_slew = tslew;
      const double e_raw = supply_energy(result, vdd, 0.0, tran.t_stop);
      const double p_leak = 0.5 * (leakage_of(leakage, batch.pat_init) +
                                   leakage_of(leakage, batch.pat_final));
      point.energy = std::max(e_raw - p_leak * tran.t_stop, 0.0);
      return point;
    }
    settle *= 2.5;
  }
  throw std::runtime_error("simulate_arc: output did not settle for " +
                           cell.name + " arc " + arc.input + "->" +
                           arc.output);
}

void Characterizer::init_clk_batch(ArcBatch& batch,
                                   const cells::CellDef& cell,
                                   const cells::TimingArc& arc,
                                   spice::SolveContext& ctx) const {
  const double vdd = options_.vdd;
  const bool target = arc.side_inputs.at("D");
  const double d_switch = 150e-12;
  std::vector<std::pair<std::string, spice::Waveform>> drives;
  // Placeholder; simulate_clk_point swaps in the slew-dependent clock
  // waveform before any solve runs.
  drives.emplace_back(cell.clock, spice::Waveform::dc(0.0));
  // Warmup edge captures !target, measurement edge captures target. For a
  // latch the "edge" is the enable going transparent.
  drives.emplace_back(
      "D", spice::Waveform::pwl({{0.0, target ? 0.0 : vdd},
                                 {d_switch, target ? 0.0 : vdd},
                                 {d_switch + 2e-12, target ? vdd : 0.0}}));
  batch.circuit =
      cell_circuit(cell, drives, arc.output, options_.loads.front());
  batch.drive_source = batch.circuit.vsource_index("v_" + cell.clock);
  batch.load_cap = batch.circuit.capacitors().size() - 1;
  batch.engine.emplace(batch.circuit, &ctx);
}

Characterizer::ArcPoint Characterizer::simulate_clk_point(
    ArcBatch& batch, const cells::CellDef& cell, const cells::TimingArc& arc,
    double slew, double load, bool relaxed) const {
  const double vdd = options_.vdd;
  const double ramp = ramp_of(slew);
  const double e1 = 10e-12;
  const double fall1 = 90e-12;
  const double e2 = 220e-12;
  const double d_switch = 150e-12;
  batch.circuit.set_vsource_wave(
      batch.drive_source,
      spice::Waveform::pwl({{0.0, 0.0},
                            {e1, 0.0},
                            {e1 + 2e-12, vdd},
                            {fall1, vdd},
                            {fall1 + 2e-12, 0.0},
                            {e2, 0.0},
                            {e2 + ramp, vdd}}));
  batch.circuit.set_capacitor_farads(batch.load_cap, load);
  spice::Engine& engine = *batch.engine;

  double settle = 120e-12 + load * 2.5e4;
  const int max_attempts = relaxed ? 4 : 3;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) settle_retry_counter().add(1);
    spice::TranOptions tran;
    tran.t_stop = e2 + ramp + settle;
    tran.dt_max = 6e-12;
    if (relaxed) tran = relax(tran);
    const spice::TranResult result = engine.transient(tran);
    ++batch.solves;
    const spice::Trace q = result.node(arc.output);

    const double clk50 = e2 + 0.5 * ramp;
    const double t_q = q.cross(0.5 * vdd, arc.output_rise, e2);
    const double v_end = q.value.back();
    const bool settled = arc.output_rise ? v_end > 0.93 * vdd
                                         : v_end < 0.07 * vdd;
    if (t_q > 0.0 && settled) {
      ArcPoint point;
      point.delay = t_q - clk50;
      // Output slew around the captured transition.
      const double o0 = arc.output_rise ? 0.0 : vdd;
      const double o1 = arc.output_rise ? vdd : 0.0;
      const double t10 = q.cross(o0 + 0.1 * (o1 - o0), arc.output_rise, e2);
      const double t90 = q.cross(o0 + 0.9 * (o1 - o0), arc.output_rise, e2);
      point.output_slew = (t10 > 0 && t90 > t10) ? t90 - t10 : 1e-12;
      // Energy of the capture edge only: integrate from after the D move.
      point.energy = std::max(
          supply_energy(result, vdd, (d_switch + e2) / 2.0, tran.t_stop),
          0.0);
      return point;
    }
    settle *= 2.5;
  }
  throw std::runtime_error("simulate_clk_arc: no capture for " + cell.name);
}

Characterizer::ArcOutcome Characterizer::characterize_arc(
    const cells::CellDef& cell, const cells::TimingArc& arc,
    const std::vector<LeakageState>& leakage,
    spice::SolveContext& ctx) const {
  OBS_SPAN("charlib.arc", arc.input, "->", arc.output);
  static obs::Counter& arc_retries =
      obs::registry().counter("charlib.arc_retries");
  static obs::Counter& failed_arcs =
      obs::registry().counter("charlib.failed_arcs");
  static obs::Counter& grid_points =
      obs::registry().counter("charlib.grid_points");

  // The stimulus indexes `leakage` by the shared leakage_pattern_pins bit
  // order; a mismatched state space would silently mis-price the energy
  // correction, so check it structurally (NDEBUG builds included).
  const std::size_t expected_states =
      std::size_t{1} << leakage_pattern_pins(cell).size();
  if (leakage.size() != expected_states)
    throw std::logic_error(
        "characterize_arc: leakage pattern space for " + cell.name +
        " has " + std::to_string(leakage.size()) + " states, expected " +
        std::to_string(expected_states));

  // Only a clock/enable-driven arc uses the two-edge capture protocol;
  // any other arc — including a combinational arc through a sequential
  // cell, like a transparent latch's D->Q — is a plain driven edge.
  const bool clk_arc = cell.sequential && arc.input == cell.clock;

  ArcOutcome out;
  out.tables.input = arc.input;
  out.tables.output = arc.output;
  out.tables.input_rise = arc.input_rise;
  out.tables.output_rise = arc.output_rise;
  out.tables.delay = Table2D(options_.slews, options_.loads);
  out.tables.output_slew = Table2D(options_.slews, options_.loads);
  out.tables.energy = Table2D(options_.slews, options_.loads);

  // Build the circuit, skeleton, and solver state once; the grid loop
  // below replays 49 stimuli through it.
  ArcBatch batch;
  if (clk_arc)
    init_clk_batch(batch, cell, arc, ctx);
  else
    init_arc_batch(batch, cell, arc, ctx);

  bool arc_ok = true;
  for (std::size_t i = 0; arc_ok && i < options_.slews.size(); ++i) {
    for (std::size_t j = 0; arc_ok && j < options_.loads.size(); ++j) {
      const auto point = [&](bool relaxed) {
        return clk_arc
                   ? simulate_clk_point(batch, cell, arc, options_.slews[i],
                                        options_.loads[j], relaxed)
                   : simulate_arc_point(batch, cell, arc, options_.slews[i],
                                        options_.loads[j], leakage, relaxed);
      };
      // Grid points that fail at the default solver settings get one
      // relaxed retry; an arc whose point still fails is quarantined
      // as a whole (a partially-filled NLDM table would interpolate
      // garbage) and the run continues with the remaining arcs.
      ArcPoint p;
      try {
        p = point(false);
      } catch (const std::runtime_error&) {
        arc_retries.add(1);
        try {
          p = point(true);
        } catch (const std::runtime_error&) {
          arc_ok = false;
          break;
        }
      }
      out.tables.delay.at(i, j) = p.delay;
      out.tables.output_slew.at(i, j) = p.output_slew;
      out.tables.energy.at(i, j) = p.energy;
    }
  }
  if (batch.solves > 1) engine_reuse_counter().add(batch.solves - 1);
  if (!arc_ok) {
    failed_arcs.add(1);
    out.ok = false;
    return out;
  }
  grid_points.add(options_.slews.size() * options_.loads.size());
  return out;
}

namespace {

// One capture experiment for setup/hold bisection: D moves to `target` at
// time t_d (absolute); returns true if Q ends at the target value.
bool capture_ok(spice::SolveContext& ctx,
                const std::function<spice::Circuit(
                    const std::vector<std::pair<std::string,
                                                spice::Waveform>>&)>& build,
                double vdd, bool target, double t_d, double t_d_away,
                double edge, double t_stop) {
  std::vector<std::pair<std::string, spice::Waveform>> drives;
  const double e1 = 10e-12, fall1 = 90e-12;
  drives.emplace_back("CLK", spice::Waveform::pwl({{0.0, 0.0},
                                                        {e1, 0.0},
                                                        {e1 + 2e-12, vdd},
                                                        {fall1, vdd},
                                                        {fall1 + 2e-12, 0.0},
                                                        {edge, 0.0},
                                                        {edge + 4e-12, vdd}}));
  const double v_t = target ? vdd : 0.0;
  const double v_n = target ? 0.0 : vdd;
  std::vector<std::pair<double, double>> dw = {{0.0, v_n},
                                               {t_d, v_n},
                                               {t_d + 2e-12, v_t}};
  if (t_d_away > t_d) {
    dw.push_back({t_d_away, v_t});
    dw.push_back({t_d_away + 2e-12, v_n});
  }
  drives.emplace_back("D", spice::Waveform::pwl(std::move(dw)));

  spice::Circuit circuit = build(drives);
  spice::Engine engine(circuit, &ctx);
  spice::TranOptions tran;
  tran.t_stop = t_stop;
  tran.dt_max = 6e-12;
  const auto result = engine.transient(tran);
  const double v_q = result.node("Q").value.back();
  return target ? v_q > 0.9 * vdd : v_q < 0.1 * vdd;
}

}  // namespace

double Characterizer::find_setup(const cells::CellDef& cell,
                                 spice::SolveContext& ctx) const {
  // Smallest D-before-clock offset that still captures, worst of both
  // data polarities.
  const auto build = [&](const std::vector<
                         std::pair<std::string, spice::Waveform>>& drives) {
    return cell_circuit(cell, drives, "Q", 1e-15);
  };
  const double edge = 220e-12;
  const double t_stop = edge + 250e-12;
  double worst = 0.0;
  for (bool target : {false, true}) {
    double pass = 80e-12;  // D this early definitely captures
    double fail = 0.0;     // D at the edge definitely misses
    if (!capture_ok(ctx, build, options_.vdd,
                    target, edge - pass, -1.0, edge, t_stop))
      return 80e-12;  // pathological; report the full window
    for (int i = 0; i < 10; ++i) {
      const double mid = 0.5 * (pass + fail);
      if (capture_ok(ctx, build, options_.vdd,
                     target, edge - mid, -1.0, edge, t_stop))
        pass = mid;
      else
        fail = mid;
    }
    worst = std::max(worst, pass);
  }
  return worst;
}

double Characterizer::find_hold(const cells::CellDef& cell,
                                spice::SolveContext& ctx) const {
  // Smallest D-stable-after-clock time: D moves to target well before the
  // edge and moves away `offset` after it; capture must still succeed.
  const auto build = [&](const std::vector<
                         std::pair<std::string, spice::Waveform>>& drives) {
    return cell_circuit(cell, drives, "Q", 1e-15);
  };
  const double edge = 220e-12;
  const double t_stop = edge + 250e-12;
  double worst = -20e-12;
  for (bool target : {false, true}) {
    double pass = 60e-12;
    double fail = -20e-12;
    if (!capture_ok(ctx, build, options_.vdd,
                    target, edge - 100e-12, edge + pass, edge, t_stop))
      return 60e-12;
    for (int i = 0; i < 10; ++i) {
      const double mid = 0.5 * (pass + fail);
      if (capture_ok(ctx, build, options_.vdd,
                     target, edge - 100e-12, edge + mid, edge, t_stop))
        pass = mid;
      else
        fail = mid;
    }
    worst = std::max(worst, pass);
  }
  return worst;
}

void Characterizer::prep_cell(const cells::CellDef& cell, CellChar& out,
                              spice::SolveContext& ctx) const {
  OBS_SPAN("charlib.prep", cell.name);
  out.def = cell;

  // Input pin capacitances: sum of gate capacitances of attached devices.
  for (const auto& pin : leakage_pattern_pins(cell)) {
    double cap = 0.0;
    for (const auto& t : cell.transistors) {
      if (t.gate != pin) continue;
      device::ModelCard card =
          t.polarity == device::Polarity::kNmos ? nmos_ : pmos_;
      card.NFIN = t.fins;
      const auto c =
          device::FinFet(card, options_.temperature).capacitances();
      cap += c.cgs + c.cgd;
    }
    out.pin_caps.emplace_back(pin, cap);
  }

  out.leakage = measure_leakage(cell, ctx);
  double acc = 0.0;
  for (const auto& s : out.leakage) acc += s.watts;
  out.leakage_avg =
      out.leakage.empty() ? 0.0 : acc / static_cast<double>(out.leakage.size());
}

CellChar Characterizer::characterize(const cells::CellDef& cell) const {
  OBS_SPAN("charlib.cell", cell.name);
  static obs::Histogram& cell_seconds =
      obs::registry().histogram("charlib.cell_seconds");
  static obs::Counter& cells_counter =
      obs::registry().counter("charlib.cells_characterized");
  const auto t_start = std::chrono::steady_clock::now();

  CellChar out;
  // One solver context for the whole cell: every engine below shares
  // these workspaces, so after the first arc sizes them the rest of the
  // cell runs with zero solver-side heap allocations.
  spice::SolveContext ctx;
  prep_cell(cell, out, ctx);

  for (const auto& arc : cell.arcs) {
    ArcOutcome res = characterize_arc(cell, arc, out.leakage, ctx);
    if (res.ok)
      out.arcs.push_back(std::move(res.tables));
    else
      out.failed_arcs.push_back(arc_label(cell, arc));
  }

  if (cell.sequential && options_.characterize_setup_hold && !cell.is_latch) {
    out.setup_time = find_setup(cell, ctx);
    out.hold_time = find_hold(cell, ctx);
  }
  cells_counter.add(1);
  cell_seconds.observe(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t_start)
                           .count());
  return out;
}

Library Characterizer::characterize_all(
    std::span<const cells::CellDef> cell_defs,
    const std::string& library_name, std::span<const std::string> priority,
    const Publish& publish) const {
  OBS_SPAN("charlib.characterize_all", library_name);
  // Full characterization runs in this process: a warm artifact store
  // keeps this at zero, which the sweep bench asserts.
  static obs::Counter& runs = obs::registry().counter("charlib.runs");
  static obs::Counter& tasks = obs::registry().counter("charlib.tasks");
  static obs::Counter& pool_reuse =
      obs::registry().counter("charlib.ctx_pool_reuse");
  static obs::Counter& cells_counter =
      obs::registry().counter("charlib.cells_characterized");
  runs.add(1);
  Library lib;
  lib.name = library_name;
  lib.temperature = options_.temperature;
  lib.vdd = options_.vdd;
  lib.slew_grid = options_.slews;
  lib.load_grid = options_.loads;
  lib.cells.resize(cell_defs.size());

  // Solver workspaces are pooled across every task unit below: a unit
  // checks one out for its lifetime, so buffers warmed by one arc are
  // reused by the next without any thread-identity dependence (the unit's
  // RESULT never depends on which instance it drew — see exec/pool.hpp).
  exec::Pool<spice::SolveContext> pool;
  const auto checkout = [&]() {
    auto lease = pool.acquire();
    tasks.add(1);
    if (lease.reused()) pool_reuse.add(1);
    return lease;
  };

  // Wave one: per-cell prep (pin caps + leakage states). Prep is its own
  // wave because every combinational arc's energy correction reads its
  // cell's full leakage vector.
  exec::parallel_for(
      cell_defs.size(),
      [&](std::size_t i) {
        const auto ctx = checkout();
        prep_cell(cell_defs[i], lib.cells[i], *ctx);
      },
      options_.threads);

  // Wave two: the actual wall — one flat unit per (cell, arc) grid plus
  // one per flop's setup/hold bisection, so parallelism lives at the
  // arc x (slew, load) level. A nested parallel_for would run inline
  // (see exec/exec.hpp), hence the flattening into a single task list.
  struct Unit {
    std::size_t cell = 0;
    std::size_t arc = 0;  // ignored when setup_hold
    bool setup_hold = false;
  };
  std::vector<Unit> units;
  for (std::size_t i = 0; i < cell_defs.size(); ++i) {
    for (std::size_t a = 0; a < cell_defs[i].arcs.size(); ++a)
      units.push_back({i, a, false});
    if (cell_defs[i].sequential && options_.characterize_setup_hold &&
        !cell_defs[i].is_latch)
      units.push_back({i, 0, true});
  }
  struct UnitResult {
    ArcOutcome arc;
    double setup = 0.0;
    double hold = 0.0;
  };
  std::vector<UnitResult> results(units.size());

  // Deterministic merge: units were emitted in (cell, arc declaration)
  // order and results are keyed by unit index, so merging each cell's
  // units in index order puts arcs, failed_arcs, and setup/hold exactly
  // where a serial run would — the library (and the Liberty text rendered
  // from it) is byte-identical at any thread count and in any band order.
  const auto merge = [&](std::size_t u) {
    const Unit& unit = units[u];
    CellChar& cc = lib.cells[unit.cell];
    if (unit.setup_hold) {
      cc.setup_time = results[u].setup;
      cc.hold_time = results[u].hold;
    } else if (results[u].arc.ok) {
      cc.arcs.push_back(std::move(results[u].arc.tables));
    } else {
      cc.failed_arcs.push_back(arc_label(cell_defs[unit.cell],
                                         cell_defs[unit.cell].arcs[unit.arc]));
    }
  };

  // Bands: the priority cells' units, then the rest, each longest first.
  std::vector<char> urgent(cell_defs.size(), 0);
  for (std::size_t i = 0; i < cell_defs.size(); ++i)
    urgent[i] = std::find(priority.begin(), priority.end(),
                          cell_defs[i].name) != priority.end();
  std::vector<std::size_t> order(units.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto rank = [&](std::size_t u) {
    const Unit& unit = units[u];
    return std::tuple(!urgent[unit.cell], !unit.setup_hold,
                      -static_cast<std::ptrdiff_t>(
                          cell_defs[unit.cell].transistors.size()));
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return rank(a) < rank(b);
                   });

  // The priority library: merged and handed over by whichever task
  // finishes the band's last unit (every band task's result happens-before
  // that task's acq_rel decrement observes zero).
  const bool publishing = publish && !priority.empty();
  std::size_t band_units = 0;
  for (const Unit& unit : units) band_units += urgent[unit.cell];
  std::atomic<std::size_t> band_left{band_units};
  const auto publish_band = [&] {
    OBS_SPAN("charlib.publish", library_name);
    Library band;
    band.name = lib.name;
    band.temperature = lib.temperature;
    band.vdd = lib.vdd;
    band.slew_grid = lib.slew_grid;
    band.load_grid = lib.load_grid;
    for (std::size_t u = 0; u < units.size(); ++u)
      if (urgent[units[u].cell]) merge(u);
    for (std::size_t i = 0; i < cell_defs.size(); ++i) {
      if (!urgent[i]) continue;
      band.cells.push_back(lib.cells[i]);
      band.quarantined_arcs.insert(band.quarantined_arcs.end(),
                                   lib.cells[i].failed_arcs.begin(),
                                   lib.cells[i].failed_arcs.end());
    }
    publish(std::move(band));
  };
  if (publishing && band_units == 0) publish_band();

  exec::parallel_for(
      order.size(),
      [&](std::size_t k) {
        const std::size_t u = order[k];
        const Unit& unit = units[u];
        const cells::CellDef& cell = cell_defs[unit.cell];
        {
          const auto ctx = checkout();
          if (unit.setup_hold) {
            results[u].setup = find_setup(cell, *ctx);
            results[u].hold = find_hold(cell, *ctx);
          } else {
            results[u].arc = characterize_arc(
                cell, cell.arcs[unit.arc], lib.cells[unit.cell].leakage,
                *ctx);
          }
        }
        if (publishing && urgent[unit.cell] &&
            band_left.fetch_sub(1, std::memory_order_acq_rel) == 1)
          publish_band();
      },
      options_.threads);

  for (std::size_t u = 0; u < units.size(); ++u)
    if (!publishing || !urgent[units[u].cell]) merge(u);
  cells_counter.add(cell_defs.size());

  // Aggregate quarantined arcs in cell order, so the list (and the
  // manifest it lands in) is deterministic at any thread count.
  for (const auto& cell : lib.cells)
    lib.quarantined_arcs.insert(lib.quarantined_arcs.end(),
                                cell.failed_arcs.begin(),
                                cell.failed_arcs.end());
  return lib;
}

}  // namespace cryo::charlib
