#include "sta/sta.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cryo::sta {
namespace {

constexpr double kNegInf = -1e30;
constexpr double kPosInf = 1e30;

}  // namespace

StaEngine::StaEngine(const netlist::Netlist& netlist,
                     const charlib::Library& library,
                     const sram::SramModel& sram_model, StaOptions options)
    : nl_(netlist), sram_(sram_model), opt_(options) {
  sinks_.resize(nl_.net_count());
  loads_.assign(nl_.net_count(), 0.0);

  const charlib::CellIndex index(library);
  cells_.reserve(nl_.gates().size());
  for (std::size_t gi = 0; gi < nl_.gates().size(); ++gi) {
    const auto& gate = nl_.gates()[gi];
    const charlib::CellChar& cell = index.at(gate.cell);
    cells_.push_back(&cell);
    for (const auto& [pin, net] : gate.conns) {
      const bool is_output = [&] {
        for (const auto& out : cell.def.outputs)
          if (out.name == pin) return true;
        return false;
      }();
      if (is_output) continue;
      sinks_[static_cast<std::size_t>(net)].push_back(
          {static_cast<int>(gi), pin});
      loads_[static_cast<std::size_t>(net)] += cell.pin_cap(pin);
    }
  }
  // SRAM input pins: a fixed boundary cap per pin.
  constexpr double kMacroPinCap = 1.5e-15;
  for (const auto& m : nl_.srams()) {
    auto add_macro_pin = [&](netlist::NetId net) {
      if (net == netlist::kNoNet) return;
      sinks_[static_cast<std::size_t>(net)].push_back({-1, "macro"});
      loads_[static_cast<std::size_t>(net)] += kMacroPinCap;
    };
    for (netlist::NetId n : m.address) add_macro_pin(n);
    for (netlist::NetId n : m.data_in) add_macro_pin(n);
    add_macro_pin(m.write_enable);
  }
  for (netlist::NetId n : nl_.outputs())
    loads_[static_cast<std::size_t>(n)] += opt_.primary_output_load;
  // Wire-load model: capacitance per sink.
  for (std::size_t n = 0; n < nl_.net_count(); ++n)
    loads_[n] += opt_.wire_cap_per_fanout *
                 static_cast<double>(sinks_[n].size());
}

double StaEngine::net_load(netlist::NetId net) const {
  return loads_.at(static_cast<std::size_t>(net));
}

TimingReport StaEngine::run() const {
  OBS_SPAN("sta.run");
  static obs::Counter& runs = obs::registry().counter("sta.runs");
  static obs::Counter& gates_propagated =
      obs::registry().counter("sta.gates_propagated");
  runs.add(1);

  const std::size_t n_nets = nl_.net_count();
  const std::size_t n_gates = nl_.gates().size();

  // Arrival state per net.
  std::vector<double> arrival(n_nets, kNegInf);
  std::vector<double> min_arrival(n_nets, kPosInf);
  std::vector<double> slew(n_nets, opt_.primary_input_slew);
  // Traceback: which gate and which input net set the worst arrival.
  std::vector<int> from_gate(n_nets, -1);
  std::vector<netlist::NetId> from_net(n_nets, netlist::kNoNet);

  auto launch = [&](netlist::NetId net, double t, double s) {
    const auto i = static_cast<std::size_t>(net);
    arrival[i] = std::max(arrival[i], t);
    min_arrival[i] = std::min(min_arrival[i], t);
    slew[i] = s;
  };

  // Launch points.
  for (netlist::NetId n : nl_.inputs())
    launch(n, 0.0, opt_.primary_input_slew);
  if (nl_.clock() != netlist::kNoNet)
    launch(nl_.clock(), 0.0, opt_.clock_slew);

  for (std::size_t gi = 0; gi < n_gates; ++gi) {
    const auto& gate = nl_.gates()[gi];
    const charlib::CellChar& cell = *cells_[gi];
    if (!cell.def.sequential) continue;
    // Flop Q launches at clk->Q delay.
    for (const auto& out : cell.def.outputs) {
      const netlist::NetId q = gate.pin(out.name);
      if (q == netlist::kNoNet) continue;
      const double load = net_load(q);
      double d = 0.0, s = opt_.primary_input_slew;
      for (const auto& arc : cell.arcs) {
        if (arc.output != out.name) continue;
        d = std::max(d, arc.delay.lookup(opt_.clock_slew, load));
        s = std::max(s, arc.output_slew.lookup(opt_.clock_slew, load));
      }
      launch(q, d, s);
    }
  }
  for (const auto& m : nl_.srams()) {
    const auto t = sram_.timing({m.rows, m.cols});
    for (netlist::NetId n : m.data_out)
      launch(n, t.access_time, 3.0 * sram_.reference_gate_delay());
  }

  // Levelize combinational gates (Kahn).
  std::vector<int> pending(n_gates, 0);
  std::vector<std::size_t> ready;
  std::size_t comb_total = 0;
  {
    OBS_SPAN("sta.levelize");
    for (std::size_t gi = 0; gi < n_gates; ++gi) {
      const auto& gate = nl_.gates()[gi];
      const charlib::CellChar& cell = *cells_[gi];
      if (cell.def.sequential) continue;  // flops are launch/capture points
      int unresolved = 0;
      for (const auto& [pin, net] : gate.conns) {
        bool is_input = false;
        for (const auto& in : cell.def.inputs) is_input |= (in == pin);
        if (!is_input) continue;
        if (arrival[static_cast<std::size_t>(net)] <= kNegInf / 2)
          ++unresolved;
      }
      pending[gi] = unresolved;
      if (unresolved == 0) ready.push_back(gi);
    }
    for (const charlib::CellChar* cell : cells_)
      if (!cell->def.sequential) ++comb_total;
  }

  std::size_t processed = 0;
  OBS_SPAN("sta.propagate");
  while (!ready.empty()) {
    const std::size_t gi = ready.back();
    ready.pop_back();
    ++processed;
    const auto& gate = nl_.gates()[gi];
    const charlib::CellChar& cell = *cells_[gi];
    for (const auto& out : cell.def.outputs) {
      const netlist::NetId y = gate.pin(out.name);
      if (y == netlist::kNoNet) continue;
      const auto yi = static_cast<std::size_t>(y);
      const double load = net_load(y);
      double best = kNegInf, best_min = kPosInf, worst_slew = 0.0;
      netlist::NetId best_from = netlist::kNoNet;
      for (const auto& arc : cell.arcs) {
        if (arc.output != out.name) continue;
        const netlist::NetId in = gate.pin(arc.input);
        if (in == netlist::kNoNet) continue;
        const auto ii = static_cast<std::size_t>(in);
        if (arrival[ii] <= kNegInf / 2) continue;
        const double d = arc.delay.lookup(slew[ii], load) +
                         opt_.wire_delay_per_fanout;
        const double t = arrival[ii] + d;
        if (t > best) {
          best = t;
          best_from = in;
        }
        best_min = std::min(best_min, min_arrival[ii] + d);
        worst_slew =
            std::max(worst_slew, arc.output_slew.lookup(slew[ii], load));
      }
      // With every input unconstrained (a dangling cone) the output stays
      // unconstrained too, but its sinks must still be released — they pop
      // with -inf inputs and propagate the unconstrained state onward.
      // Skipping the release here would starve the ready queue and turn a
      // dangling cone into a spurious "combinational loop" report.
      if (best > kNegInf / 2) {
        arrival[yi] = best;
        min_arrival[yi] = best_min;
        slew[yi] = worst_slew;
        from_gate[yi] = static_cast<int>(gi);
        from_net[yi] = best_from;
      }
      // Release sinks.
      for (const auto& sink : sinks_[yi]) {
        if (sink.gate < 0) continue;
        if (cells_[static_cast<std::size_t>(sink.gate)]->def.sequential)
          continue;
        if (--pending[static_cast<std::size_t>(sink.gate)] == 0)
          ready.push_back(static_cast<std::size_t>(sink.gate));
      }
    }
  }
  gates_propagated.add(processed);
  if (processed != comb_total)
    throw std::runtime_error(
        "StaEngine: combinational loop or unconnected cone (" +
        std::to_string(comb_total - processed) + " gates unresolved)");

  // Capture points.
  TimingReport report;
  report.worst_hold_slack = kPosInf;
  double worst = 0.0;
  netlist::NetId worst_net = netlist::kNoNet;
  std::string worst_endpoint;

  auto consider = [&](netlist::NetId net, double setup, double hold,
                      const std::string& endpoint) {
    const auto i = static_cast<std::size_t>(net);
    if (arrival[i] <= kNegInf / 2) return;
    ++report.endpoint_count;
    const double total = arrival[i] + setup;
    if (total > worst) {
      worst = total;
      worst_net = net;
      worst_endpoint = endpoint;
    }
    if (min_arrival[i] < kPosInf / 2) {
      report.has_hold_endpoints = true;
      report.worst_hold_slack =
          std::min(report.worst_hold_slack, min_arrival[i] - hold);
    }
  };

  for (std::size_t gi = 0; gi < n_gates; ++gi) {
    const auto& gate = nl_.gates()[gi];
    const charlib::CellChar& cell = *cells_[gi];
    if (!cell.def.sequential) continue;
    const netlist::NetId d = gate.pin("D");
    if (d != netlist::kNoNet)
      consider(d, cell.setup_time, cell.hold_time, gate.name + "/D");
  }
  for (const auto& m : nl_.srams()) {
    const auto t = sram_.timing({m.rows, m.cols});
    for (netlist::NetId n : m.address)
      consider(n, t.setup_time, 0.0, m.name + "/addr");
    for (netlist::NetId n : m.data_in)
      consider(n, t.setup_time, 0.0, m.name + "/din");
    if (m.write_enable != netlist::kNoNet)
      consider(m.write_enable, t.setup_time, 0.0, m.name + "/we");
  }
  for (netlist::NetId n : nl_.outputs()) consider(n, 0.0, 0.0, "PO");

  report.critical_delay = worst;
  report.fmax = 1.0 / (worst + opt_.clock_uncertainty);
  report.critical_endpoint = worst_endpoint;
  if (!report.has_hold_endpoints) report.worst_hold_slack = 0.0;

  // Trace the critical path back to its launch point.
  netlist::NetId cur = worst_net;
  while (cur != netlist::kNoNet) {
    const auto ci = static_cast<std::size_t>(cur);
    PathStep step;
    step.through = nl_.net_name(cur);
    step.arrival = arrival[ci];
    if (from_gate[ci] >= 0) {
      const auto& g = nl_.gates()[static_cast<std::size_t>(from_gate[ci])];
      step.instance = g.name;
      step.cell = g.cell;
      const netlist::NetId prev = from_net[ci];
      step.delay = arrival[ci] -
                   (prev != netlist::kNoNet
                        ? arrival[static_cast<std::size_t>(prev)]
                        : 0.0);
      cur = prev;
    } else {
      step.instance = "<launch>";
      step.delay = arrival[ci];
      cur = netlist::kNoNet;
    }
    report.critical_path.push_back(step);
  }
  std::reverse(report.critical_path.begin(), report.critical_path.end());
  return report;
}

}  // namespace cryo::sta
