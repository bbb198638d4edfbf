#include "gatesim/event_sim.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"

namespace cryo::gatesim {
namespace {

// Pin capacitance without the strict unknown-pin throw of
// CellChar::pin_cap: a function-only library (no characterization) simply
// contributes zero load.
double soft_pin_cap(const charlib::CellChar& cell, const std::string& pin) {
  for (const auto& [name, cap] : cell.pin_caps)
    if (name == pin) return cap;
  return 0.0;
}

}  // namespace

std::uint64_t EventSimulator::to_fs(double seconds) const {
  if (seconds <= 0.0) return 1;
  const double fs = seconds * 1e15;
  return fs < 1.0 ? 1 : static_cast<std::uint64_t>(std::llround(fs));
}

double EventSimulator::net_load(netlist::NetId net) const {
  if (net == netlist::kNoNet) return 0.0;
  const auto& sinks = net_sinks_[static_cast<std::size_t>(net)];
  double load = cfg_.wire_cap_per_fanout * static_cast<double>(sinks.size());
  for (const auto& [gi, ii] : sinks) {
    const GateInfo& info = gates_[gi];
    const auto& ins = info.cell->def.inputs;
    if (ii < ins.size())
      load += soft_pin_cap(*info.cell, ins[ii]);
    else  // clock/enable sink (index past the data inputs)
      load += soft_pin_cap(*info.cell, info.cell->def.clock);
  }
  return load;
}

std::uint64_t EventSimulator::arc_delay_fs(const GateInfo& info,
                                           std::size_t output_index,
                                           std::size_t input_index, bool rise,
                                           double load) const {
  const auto& def = info.cell->def;
  const std::string& out = def.outputs[output_index].name;
  const std::string& in = input_index < def.inputs.size()
                              ? def.inputs[input_index]
                              : def.clock;
  double worst = 0.0;
  bool found = false;
  for (const auto& arc : info.cell->arcs) {
    if (arc.output != out || arc.input != in || arc.output_rise != rise)
      continue;
    if (arc.delay.empty()) continue;
    worst = std::max(worst, arc.delay.lookup(cfg_.nominal_slew, load));
    found = true;
  }
  if (!found) return to_fs(cfg_.default_gate_delay);
  return to_fs(worst);
}

EventSimulator::EventSimulator(const netlist::Netlist& netlist,
                               const charlib::Library& library,
                               EventSimConfig config)
    : nl_(netlist), cfg_(config) {
  period_fs_ = to_fs(cfg_.clock_period);
  sram_delay_fs_ = to_fs(cfg_.sram_access_delay);
  event_budget_ = cfg_.max_events_per_settle
                      ? cfg_.max_events_per_settle
                      : nl_.gates().size() * 256 + 65536;

  values_.assign(nl_.net_count(), 0);
  toggle_counts_.assign(nl_.net_count(), 0);
  glitch_counts_.assign(nl_.net_count(), 0);
  pending_seq_.assign(nl_.net_count(), kNoPending);
  pending_value_.assign(nl_.net_count(), 0);
  net_sinks_.resize(nl_.net_count());
  net_driver_.assign(nl_.net_count(), -1);

  const charlib::CellIndex index(library);
  gates_.resize(nl_.gates().size());
  for (std::size_t gi = 0; gi < nl_.gates().size(); ++gi) {
    const auto& gate = nl_.gates()[gi];
    GateInfo& info = gates_[gi];
    info.cell = &index.at(gate.cell);
    info.sequential = info.cell->def.sequential;
    info.is_latch = info.cell->def.is_latch;
    const auto& def = info.cell->def;
    for (std::size_t ii = 0; ii < def.inputs.size(); ++ii) {
      const netlist::NetId n = gate.pin(def.inputs[ii]);
      info.inputs.push_back(n);
      // Flop D pins don't react to data events (they sample on the
      // edge), but they still load the driving net, so they are sinks
      // either way; eval_gate() ignores non-latch sequential gates.
      if (n != netlist::kNoNet)
        net_sinks_[static_cast<std::size_t>(n)].emplace_back(
            static_cast<std::uint32_t>(gi), static_cast<std::uint32_t>(ii));
    }
    if (info.sequential) {
      const netlist::NetId c = gate.pin(def.clock);
      info.enable = c;
      if (c != netlist::kNoNet && info.is_latch)
        net_sinks_[static_cast<std::size_t>(c)].emplace_back(
            static_cast<std::uint32_t>(gi),
            static_cast<std::uint32_t>(def.inputs.size()));
    }
    for (const auto& out : def.outputs) {
      const netlist::NetId y = gate.pin(out.name);
      info.outputs.push_back(y);
      if (y != netlist::kNoNet)
        net_driver_[static_cast<std::size_t>(y)] = static_cast<int>(gi);
    }
  }

  // Delay annotation: per (output, cause input, direction), NLDM at the
  // output net's actual load. Slot `inputs.size()` holds the worst-case
  // delay used when no single cause is identifiable (initial settle).
  for (std::size_t gi = 0; gi < gates_.size(); ++gi) {
    GateInfo& info = gates_[gi];
    const std::size_t nin = info.inputs.size();
    if (info.sequential) {
      const netlist::NetId q = info.outputs.empty() ? netlist::kNoNet
                                                    : info.outputs[0];
      const double load = net_load(q);
      info.clkq_rise_fs = arc_delay_fs(info, 0, nin, true, load);
      info.clkq_fall_fs = arc_delay_fs(info, 0, nin, false, load);
      continue;
    }
    info.delay_fs.assign(info.outputs.size() * (nin + 1) * 2, 1);
    for (std::size_t oi = 0; oi < info.outputs.size(); ++oi) {
      const double load = net_load(info.outputs[oi]);
      std::uint64_t worst_rise = 1, worst_fall = 1;
      for (std::size_t ii = 0; ii < nin; ++ii) {
        const std::uint64_t r = arc_delay_fs(info, oi, ii, true, load);
        const std::uint64_t f = arc_delay_fs(info, oi, ii, false, load);
        info.delay_fs[(oi * (nin + 1) + ii) * 2 + 0] = r;
        info.delay_fs[(oi * (nin + 1) + ii) * 2 + 1] = f;
        worst_rise = std::max(worst_rise, r);
        worst_fall = std::max(worst_fall, f);
      }
      info.delay_fs[(oi * (nin + 1) + nin) * 2 + 0] = worst_rise;
      info.delay_fs[(oi * (nin + 1) + nin) * 2 + 1] = worst_fall;
    }
  }

  for (const auto& m : nl_.srams()) srams_[m.name] = {};

  // Initial settle: seed every gate once (worst-case cause) at t = 0.
  for (std::size_t gi = 0; gi < gates_.size(); ++gi)
    eval_gate(gi, gates_[gi].inputs.size(), 0);
  drain();
}

void EventSimulator::schedule_output(netlist::NetId net, bool new_value,
                                     std::uint64_t at_fs) {
  if (net == netlist::kNoNet) return;
  const auto ni = static_cast<std::size_t>(net);
  const bool pending = pending_seq_[ni] != kNoPending;
  const bool projected = pending ? pending_value_[ni] != 0
                                 : values_[ni] != 0;
  if (new_value == projected) return;
  if (pending && new_value == (values_[ni] != 0)) {
    // Inertial cancellation: the pulse that scheduled the pending
    // transition collapsed before the gate delay elapsed.
    pending_seq_[ni] = kNoPending;
    ++glitch_counts_[ni];
    ++stats_.glitches_cancelled;
    return;
  }
  pending_value_[ni] = new_value ? 1 : 0;
  pending_seq_[ni] = queue_.push(at_fs, Transition{net, pending_value_[ni]});
}

void EventSimulator::eval_gate(std::size_t gate_index,
                               std::size_t cause_input,
                               std::uint64_t now_fs) {
  GateInfo& info = gates_[gate_index];
  if (info.sequential && !info.is_latch) return;  // edge-triggered only
  std::uint32_t pattern = 0;
  for (std::size_t i = 0; i < info.inputs.size(); ++i) {
    const netlist::NetId n = info.inputs[i];
    if (n != netlist::kNoNet && values_[static_cast<std::size_t>(n)])
      pattern |= (1u << i);
  }
  if (info.is_latch) {
    const bool en = info.enable != netlist::kNoNet &&
                    values_[static_cast<std::size_t>(info.enable)];
    if (!en) return;  // opaque: holds state
    const char d = (pattern & 1u) ? 1 : 0;
    info.state = d;
    const netlist::NetId q =
        info.outputs.empty() ? netlist::kNoNet : info.outputs[0];
    schedule_output(q, d != 0,
                    now_fs + (d ? info.clkq_rise_fs : info.clkq_fall_fs));
    return;
  }
  const std::size_t nin = info.inputs.size();
  const std::size_t cause = std::min(cause_input, nin);
  for (std::size_t oi = 0; oi < info.outputs.size(); ++oi) {
    const netlist::NetId y = info.outputs[oi];
    if (y == netlist::kNoNet) continue;
    const bool v = info.cell->def.eval(oi, pattern);
    const std::uint64_t d =
        info.delay_fs[(oi * (nin + 1) + cause) * 2 + (v ? 0 : 1)];
    schedule_output(y, v, now_fs + d);
  }
}

void EventSimulator::commit(netlist::NetId net, bool value,
                            std::uint64_t now_fs) {
  const auto ni = static_cast<std::size_t>(net);
  values_[ni] = value ? 1 : 0;
  ++toggle_counts_[ni];
  ++total_toggles_;
  ++stats_.events;
  for (const auto& [gi, ii] : net_sinks_[ni]) eval_gate(gi, ii, now_fs);
}

void EventSimulator::drain() {
  static obs::Counter& events_counter =
      obs::registry().counter("gatesim.events");
  static obs::Counter& glitch_counter =
      obs::registry().counter("gatesim.glitches_cancelled");
  static obs::Counter& resize_counter =
      obs::registry().counter("gatesim.queue_resizes");
  const std::uint64_t events_before = stats_.events;
  const std::uint64_t glitches_before = stats_.glitches_cancelled;
  const std::uint64_t resizes_before = queue_.resizes();
  std::uint64_t processed = 0;
  while (!queue_.empty()) {
    const auto entry = queue_.pop();
    const auto ni = static_cast<std::size_t>(entry.payload.net);
    if (pending_seq_[ni] != entry.seq) {
      ++stats_.stale_skipped;  // superseded (cancelled/rescheduled)
      continue;
    }
    pending_seq_[ni] = kNoPending;
    if (entry.time > stats_.now_fs) stats_.now_fs = entry.time;
    commit(entry.payload.net, entry.payload.value != 0, entry.time);
    if (++processed > event_budget_) {
      const int driver = net_driver_[ni];
      stats_.queue_resizes = queue_.resizes();
      throw SettleError(
          "gatesim: event budget exhausted (oscillating loop?)",
          driver >= 0 ? nl_.gates()[static_cast<std::size_t>(driver)].name
                      : "<input>",
          nl_.net_name(entry.payload.net), processed);
    }
  }
  stats_.queue_resizes = queue_.resizes();
  events_counter.add(stats_.events - events_before);
  glitch_counter.add(stats_.glitches_cancelled - glitches_before);
  resize_counter.add(queue_.resizes() - resizes_before);
}

void EventSimulator::set(netlist::NetId net, bool value) {
  const auto ni = static_cast<std::size_t>(net);
  pending_seq_[ni] = kNoPending;  // an input override revokes in-flight
  if (values_[ni] == static_cast<char>(value)) return;
  commit(net, value, stats_.now_fs);
  drain();
}

void EventSimulator::set_bus(const std::vector<netlist::NetId>& bus,
                             std::uint64_t value) {
  // All bits change at the same instant: apply the values first, then
  // evaluate fanout (matching the zero-delay simulator's set_bus).
  scratch_.clear();
  for (std::size_t i = 0; i < bus.size(); ++i) {
    const bool bit = (value >> i) & 1u;
    const auto ni = static_cast<std::size_t>(bus[i]);
    pending_seq_[ni] = kNoPending;
    if (values_[ni] == static_cast<char>(bit)) continue;
    values_[ni] = bit ? 1 : 0;
    ++toggle_counts_[ni];
    ++total_toggles_;
    ++stats_.events;
    scratch_.push_back(bus[i]);
  }
  for (const netlist::NetId n : scratch_)
    for (const auto& [gi, ii] : net_sinks_[static_cast<std::size_t>(n)])
      eval_gate(gi, ii, stats_.now_fs);
  drain();
}

void EventSimulator::clock_edge() {
  drain();
  const std::uint64_t t_edge =
      std::max(stats_.now_fs + 1, (stats_.edges + 1) * period_fs_);
  stats_.now_fs = t_edge;
  ++stats_.edges;

  // Phase 1: sample every flop D and SRAM port before anything moves.
  for (std::size_t gi = 0; gi < gates_.size(); ++gi) {
    GateInfo& info = gates_[gi];
    if (!info.sequential || info.is_latch) continue;
    const netlist::NetId d =
        info.inputs.empty() ? netlist::kNoNet : info.inputs[0];
    const char v =
        (d != netlist::kNoNet && values_[static_cast<std::size_t>(d)]) ? 1
                                                                       : 0;
    if (info.state == v) continue;
    info.state = v;
    const netlist::NetId q =
        info.outputs.empty() ? netlist::kNoNet : info.outputs[0];
    schedule_output(q, v != 0,
                    t_edge + (v ? info.clkq_rise_fs : info.clkq_fall_fs));
  }
  struct SramOp {
    const netlist::SramMacro* macro;
    std::uint64_t addr = 0;
    std::uint64_t din = 0;
    bool we = false;
  };
  std::vector<SramOp> ops;
  ops.reserve(nl_.srams().size());
  for (const auto& m : nl_.srams()) {
    SramOp op;
    op.macro = &m;
    for (std::size_t i = 0; i < m.address.size(); ++i)
      if (values_[static_cast<std::size_t>(m.address[i])])
        op.addr |= (1ull << i);
    for (std::size_t i = 0; i < m.data_in.size() && i < 64; ++i)
      if (values_[static_cast<std::size_t>(m.data_in[i])])
        op.din |= (1ull << i);
    op.we = m.write_enable != netlist::kNoNet &&
            values_[static_cast<std::size_t>(m.write_enable)];
    ops.push_back(op);
  }
  // Phase 2: commit writes and launch data_out after the access delay.
  for (const auto& op : ops) {
    auto& mem = srams_[op.macro->name];
    const std::uint64_t row =
        op.addr % static_cast<std::uint64_t>(op.macro->rows);
    MacroStats& ms = macro_stats_[op.macro->name];
    if (op.we) ++ms.writes;
    if (row != ms.last_addr) {
      ++ms.reads;
      ms.last_addr = row;
    }
    if (op.we) mem[row] = op.din;
    const auto it = mem.find(row);
    const std::uint64_t dout = it == mem.end() ? 0 : it->second;
    for (std::size_t i = 0; i < op.macro->data_out.size() && i < 64; ++i)
      schedule_output(op.macro->data_out[i], (dout >> i) & 1u,
                      t_edge + sram_delay_fs_);
  }
  drain();
}

bool EventSimulator::get(netlist::NetId net) const {
  return values_.at(static_cast<std::size_t>(net)) != 0;
}

std::uint64_t EventSimulator::get_bus(
    const std::vector<netlist::NetId>& bus) const {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < bus.size() && i < 64; ++i)
    if (get(bus[i])) out |= (1ull << i);
  return out;
}

std::uint64_t EventSimulator::toggles(netlist::NetId net) const {
  return toggle_counts_.at(static_cast<std::size_t>(net));
}

std::uint64_t EventSimulator::glitches(netlist::NetId net) const {
  return glitch_counts_.at(static_cast<std::size_t>(net));
}

double EventSimulator::activity(netlist::NetId net) const {
  if (stats_.edges == 0) return 0.0;
  return static_cast<double>(toggles(net)) /
         static_cast<double>(stats_.edges);
}

void EventSimulator::sram_write(const std::string& macro_name,
                                std::uint64_t addr, std::uint64_t value) {
  srams_.at(macro_name)[addr] = value;
}

std::uint64_t EventSimulator::sram_read(const std::string& macro_name,
                                        std::uint64_t addr) const {
  const auto& mem = srams_.at(macro_name);
  const auto it = mem.find(addr);
  return it == mem.end() ? 0 : it->second;
}

}  // namespace cryo::gatesim
