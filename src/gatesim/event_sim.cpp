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

std::uint64_t EventSimulator::arc_delay_fs(const charlib::CellChar& cell,
                                           std::size_t output_index,
                                           std::size_t input_index, bool rise,
                                           double load) const {
  const auto& def = cell.def;
  const std::string& out = def.outputs[output_index].name;
  const std::string& in = input_index < def.inputs.size()
                              ? def.inputs[input_index]
                              : def.clock;
  double worst = 0.0;
  bool found = false;
  for (const auto& arc : cell.arcs) {
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
  net_driver_.assign(nl_.net_count(), -1);

  const charlib::CellIndex index(library);
  std::vector<const charlib::CellChar*> cells(nl_.gates().size());
  std::vector<std::vector<Sink>> net_sinks(nl_.net_count());
  gates_.resize(nl_.gates().size());
  for (std::size_t gi = 0; gi < nl_.gates().size(); ++gi) {
    const auto& gate = nl_.gates()[gi];
    GateInfo& info = gates_[gi];
    cells[gi] = &index.at(gate.cell);
    const auto& def = cells[gi]->def;
    const auto g = static_cast<std::uint32_t>(gi);
    info.sequential = def.sequential;
    info.is_latch = def.is_latch;
    info.first_input = static_cast<std::uint32_t>(pins_.size());
    info.inputs = static_cast<std::uint16_t>(def.inputs.size());
    for (std::size_t ii = 0; ii < def.inputs.size(); ++ii) {
      const netlist::NetId n = gate.pin(def.inputs[ii]);
      pins_.push_back(n);
      // Flop D pins load the driving net too, so every input is a sink
      // here; the evaluation fanout below leaves the flops out.
      if (n != netlist::kNoNet)
        net_sinks[static_cast<std::size_t>(n)].push_back(
            {g, static_cast<std::uint32_t>(ii)});
    }
    if (info.sequential) {
      const netlist::NetId c = gate.pin(def.clock);
      info.enable = c;
      if (c != netlist::kNoNet && info.is_latch)
        net_sinks[static_cast<std::size_t>(c)].push_back(
            {g, static_cast<std::uint32_t>(def.inputs.size())});
      if (!info.is_latch) flops_.push_back(g);
    }
    info.first_output = static_cast<std::uint32_t>(outputs_.size());
    info.outputs = static_cast<std::uint16_t>(def.outputs.size());
    for (const auto& out : def.outputs) {
      const netlist::NetId y = gate.pin(out.name);
      outputs_.push_back({y, out.truth});
      if (y != netlist::kNoNet)
        net_driver_[static_cast<std::size_t>(y)] = static_cast<int>(gi);
    }
  }
  // The fanout a commit evaluates: flop D pins load their nets but only
  // sample at the edge, so they are left out.
  sink_begin_.reserve(nl_.net_count() + 1);
  for (const auto& list : net_sinks) {
    sink_begin_.push_back(static_cast<std::uint32_t>(sinks_.size()));
    for (const Sink& sink : list) {
      const GateInfo& info = gates_[sink.gate];
      if (!info.sequential || info.is_latch) sinks_.push_back(sink);
    }
  }
  sink_begin_.push_back(static_cast<std::uint32_t>(sinks_.size()));

  // A net's load: a stub wire per sink plus each sink pin's capacitance.
  const auto net_load = [&](netlist::NetId net) {
    if (net == netlist::kNoNet) return 0.0;
    const auto& sinks = net_sinks[static_cast<std::size_t>(net)];
    double load =
        cfg_.wire_cap_per_fanout * static_cast<double>(sinks.size());
    for (const Sink& sink : sinks) {
      const charlib::CellChar& cell = *cells[sink.gate];
      const auto& ins = cell.def.inputs;
      if (sink.input < ins.size())
        load += soft_pin_cap(cell, ins[sink.input]);
      else  // clock/enable sink (index past the data inputs)
        load += soft_pin_cap(cell, cell.def.clock);
    }
    return load;
  };

  // Delay annotation: per (output, cause input, direction), NLDM at the
  // output net's actual load. Slot `inputs` holds the worst-case delay
  // used when no single cause is identifiable (initial settle).
  for (std::size_t gi = 0; gi < gates_.size(); ++gi) {
    GateInfo& info = gates_[gi];
    const charlib::CellChar& cell = *cells[gi];
    const std::size_t nin = info.inputs;
    info.first_delay = static_cast<std::uint32_t>(delay_fs_.size());
    if (info.sequential) {
      const double load = net_load(first_output_net(info));
      delay_fs_.push_back(arc_delay_fs(cell, 0, nin, true, load));
      delay_fs_.push_back(arc_delay_fs(cell, 0, nin, false, load));
      continue;
    }
    delay_fs_.resize(delay_fs_.size() + info.outputs * (nin + 1) * 2, 1);
    std::uint64_t* delay = delay_fs_.data() + info.first_delay;
    for (std::size_t oi = 0; oi < info.outputs; ++oi) {
      const double load = net_load(outputs_[info.first_output + oi].net);
      std::uint64_t worst_rise = 1, worst_fall = 1;
      for (std::size_t ii = 0; ii < nin; ++ii) {
        const std::uint64_t r = arc_delay_fs(cell, oi, ii, true, load);
        const std::uint64_t f = arc_delay_fs(cell, oi, ii, false, load);
        delay[(oi * (nin + 1) + ii) * 2 + 0] = r;
        delay[(oi * (nin + 1) + ii) * 2 + 1] = f;
        worst_rise = std::max(worst_rise, r);
        worst_fall = std::max(worst_fall, f);
      }
      delay[(oi * (nin + 1) + nin) * 2 + 0] = worst_rise;
      delay[(oi * (nin + 1) + nin) * 2 + 1] = worst_fall;
    }
  }

  for (const auto& m : nl_.srams()) {
    SramPort port;
    port.macro = &m;
    port.mem = &srams_[m.name];
    port.stats = &macro_stats_[m.name];
    sram_ports_.push_back(port);
  }

  // Initial settle: seed every gate once (worst-case cause) at t = 0.
  for (std::size_t gi = 0; gi < gates_.size(); ++gi)
    eval_gate(gi, gates_[gi].inputs, 0);
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
  const netlist::NetId* inputs = pins_.data() + info.first_input;
  std::uint32_t pattern = 0;
  for (std::size_t i = 0; i < info.inputs; ++i) {
    const netlist::NetId n = inputs[i];
    if (n != netlist::kNoNet && values_[static_cast<std::size_t>(n)])
      pattern |= (1u << i);
  }
  const std::uint64_t* delay = delay_fs_.data() + info.first_delay;
  if (info.is_latch) {
    const bool en = info.enable != netlist::kNoNet &&
                    values_[static_cast<std::size_t>(info.enable)];
    if (!en) return;  // opaque: holds state
    const char d = (pattern & 1u) ? 1 : 0;
    info.state = d;
    schedule_output(first_output_net(info), d != 0,
                    now_fs + delay[d ? 0 : 1]);
    return;
  }
  const std::size_t nin = info.inputs;
  const std::size_t cause = std::min(cause_input, nin);
  const Output* outputs = outputs_.data() + info.first_output;
  for (std::size_t oi = 0; oi < info.outputs; ++oi) {
    const netlist::NetId y = outputs[oi].net;
    if (y == netlist::kNoNet) continue;
    const bool v = (outputs[oi].truth >> pattern) & 1u;
    const std::uint64_t d = delay[(oi * (nin + 1) + cause) * 2 + (v ? 0 : 1)];
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
  for (std::uint32_t k = sink_begin_[ni]; k < sink_begin_[ni + 1]; ++k)
    eval_gate(sinks_[k].gate, sinks_[k].input, now_fs);
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
  for (const netlist::NetId n : scratch_) {
    const auto ni = static_cast<std::size_t>(n);
    for (std::uint32_t k = sink_begin_[ni]; k < sink_begin_[ni + 1]; ++k)
      eval_gate(sinks_[k].gate, sinks_[k].input, stats_.now_fs);
  }
  drain();
}

void EventSimulator::clock_edge() {
  drain();
  const std::uint64_t t_edge =
      std::max(stats_.now_fs + 1, (stats_.edges + 1) * period_fs_);
  stats_.now_fs = t_edge;
  ++stats_.edges;

  // Phase 1: sample every flop D and SRAM port before anything moves.
  for (const std::uint32_t gi : flops_) {
    GateInfo& info = gates_[gi];
    const netlist::NetId d =
        info.inputs ? pins_[info.first_input] : netlist::kNoNet;
    const char v =
        (d != netlist::kNoNet && values_[static_cast<std::size_t>(d)]) ? 1
                                                                       : 0;
    if (info.state == v) continue;
    info.state = v;
    schedule_output(first_output_net(info), v != 0,
                    t_edge + delay_fs_[info.first_delay + (v ? 0 : 1)]);
  }
  for (SramPort& port : sram_ports_) {
    const netlist::SramMacro& m = *port.macro;
    port.addr = 0;
    for (std::size_t i = 0; i < m.address.size(); ++i)
      if (values_[static_cast<std::size_t>(m.address[i])])
        port.addr |= (1ull << i);
    port.din = 0;
    for (std::size_t i = 0; i < m.data_in.size() && i < 64; ++i)
      if (values_[static_cast<std::size_t>(m.data_in[i])])
        port.din |= (1ull << i);
    port.we = m.write_enable != netlist::kNoNet &&
              values_[static_cast<std::size_t>(m.write_enable)];
  }
  // Phase 2: commit writes and launch data_out after the access delay.
  for (const SramPort& port : sram_ports_) {
    const netlist::SramMacro& m = *port.macro;
    auto& mem = *port.mem;
    const std::uint64_t row = port.addr % static_cast<std::uint64_t>(m.rows);
    MacroStats& ms = *port.stats;
    if (port.we) ++ms.writes;
    if (row != ms.last_addr) {
      ++ms.reads;
      ms.last_addr = row;
    }
    if (port.we) mem[row] = port.din;
    const auto it = mem.find(row);
    const std::uint64_t dout = it == mem.end() ? 0 : it->second;
    for (std::size_t i = 0; i < m.data_out.size() && i < 64; ++i)
      schedule_output(m.data_out[i], (dout >> i) & 1u,
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
