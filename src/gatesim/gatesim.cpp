#include "gatesim/gatesim.hpp"

#include <stdexcept>

namespace cryo::gatesim {

Simulator::Simulator(const netlist::Netlist& netlist,
                     const charlib::Library& library)
    : nl_(netlist) {
  values_.assign(nl_.net_count(), 0);
  toggle_counts_.assign(nl_.net_count(), 0);
  net_sinks_.resize(nl_.net_count());
  in_queue_.assign(nl_.gates().size(), 0);
  eval_count_.assign(nl_.gates().size(), 0);
  eval_gen_.assign(nl_.gates().size(), 0);

  const charlib::CellIndex index(library);
  gates_.resize(nl_.gates().size());
  for (std::size_t gi = 0; gi < nl_.gates().size(); ++gi) {
    const auto& gate = nl_.gates()[gi];
    GateInfo& info = gates_[gi];
    info.cell = &index.at(gate.cell);
    info.sequential = info.cell->def.sequential;
    for (const auto& in : info.cell->def.inputs) {
      const netlist::NetId n = gate.pin(in);
      info.inputs.push_back(n);
      if (n != netlist::kNoNet)
        net_sinks_[static_cast<std::size_t>(n)].push_back(gi);
    }
    if (info.sequential) {
      const netlist::NetId c = gate.pin(info.cell->def.clock);
      if (c != netlist::kNoNet && info.cell->def.is_latch)
        net_sinks_[static_cast<std::size_t>(c)].push_back(gi);
    }
    for (const auto& out : info.cell->def.outputs)
      info.outputs.push_back(gate.pin(out.name));
  }
  for (const auto& m : nl_.srams()) srams_[m.name] = {};
  settle();
}

void Simulator::enqueue_sinks(netlist::NetId net) {
  if (net == netlist::kNoNet) return;
  for (std::size_t gi : net_sinks_[static_cast<std::size_t>(net)]) {
    if (!in_queue_[gi]) {
      in_queue_[gi] = 1;
      queue_.push_back(gi);
    }
  }
}

bool Simulator::eval_gate(std::size_t gate_index) {
  GateInfo& info = gates_[gate_index];
  std::uint32_t pattern = 0;
  for (std::size_t i = 0; i < info.inputs.size(); ++i) {
    const netlist::NetId n = info.inputs[i];
    if (n != netlist::kNoNet && values_[static_cast<std::size_t>(n)])
      pattern |= (1u << i);
  }
  bool changed = false;
  if (info.sequential) {
    // Latches are transparent while enabled; flops only change on
    // clock_edge() (handled there). Output follows the stored state.
    if (info.cell->def.is_latch) {
      const netlist::NetId en_net =
          nl_.gates()[gate_index].pin(info.cell->def.clock);
      const bool en =
          en_net != netlist::kNoNet && values_[static_cast<std::size_t>(en_net)];
      if (en) info.state = (pattern & 1u) ? 1 : 0;
    }
    const netlist::NetId q = info.outputs.empty() ? netlist::kNoNet
                                                  : info.outputs[0];
    if (q != netlist::kNoNet) {
      const auto qi = static_cast<std::size_t>(q);
      if (values_[qi] != info.state) {
        values_[qi] = info.state;
        ++toggle_counts_[qi];
        ++total_toggles_;
        enqueue_sinks(q);
        changed = true;
      }
    }
    return changed;
  }
  for (std::size_t oi = 0; oi < info.outputs.size(); ++oi) {
    const netlist::NetId y = info.outputs[oi];
    if (y == netlist::kNoNet) continue;
    const char v = info.cell->def.eval(oi, pattern) ? 1 : 0;
    const auto yi = static_cast<std::size_t>(y);
    if (values_[yi] != v) {
      values_[yi] = v;
      ++toggle_counts_[yi];
      ++total_toggles_;
      enqueue_sinks(y);
      changed = true;
    }
  }
  return changed;
}

void Simulator::settle() {
  // Seed: evaluate everything once.
  if (queue_.empty()) {
    for (std::size_t gi = 0; gi < gates_.size(); ++gi) {
      in_queue_[gi] = 1;
      queue_.push_back(gi);
    }
  }
  // A gate re-evaluated this many times in one settle pass is oscillating
  // (a convergent fixpoint touches each gate at most a handful of times);
  // the offender — not just "a loop somewhere" — goes into the diagnostic.
  constexpr std::uint32_t kMaxEvalsPerGate = 64;
  ++settle_gen_;
  while (!queue_.empty()) {
    const std::size_t gi = queue_.back();
    queue_.pop_back();
    in_queue_[gi] = 0;
    if (eval_gen_[gi] != settle_gen_) {
      eval_gen_[gi] = settle_gen_;
      eval_count_[gi] = 0;
    }
    if (++eval_count_[gi] > kMaxEvalsPerGate) {
      // Unwind to a clean (if unsettled) state so the caller can inspect.
      for (std::size_t q : queue_) in_queue_[q] = 0;
      queue_.clear();
      const GateInfo& info = gates_[gi];
      const netlist::NetId y =
          info.outputs.empty() ? netlist::kNoNet : info.outputs[0];
      throw SettleError("gatesim: oscillating combinational loop",
                        nl_.gates()[gi].name,
                        y == netlist::kNoNet ? "<none>" : nl_.net_name(y),
                        eval_count_[gi]);
    }
    eval_gate(gi);
  }
}

void Simulator::set(netlist::NetId net, bool value) {
  const auto i = static_cast<std::size_t>(net);
  if (values_[i] == static_cast<char>(value)) return;
  values_[i] = value ? 1 : 0;
  ++toggle_counts_[i];
  ++total_toggles_;
  enqueue_sinks(net);
  settle();
}

void Simulator::set_bus(const std::vector<netlist::NetId>& bus,
                        std::uint64_t value) {
  for (std::size_t i = 0; i < bus.size(); ++i) {
    const bool bit = (value >> i) & 1u;
    const auto ni = static_cast<std::size_t>(bus[i]);
    if (values_[ni] != static_cast<char>(bit)) {
      values_[ni] = bit ? 1 : 0;
      ++toggle_counts_[ni];
      ++total_toggles_;
      enqueue_sinks(bus[i]);
    }
  }
  settle();
}

void Simulator::clock_edge() {
  ++edges_;
  // Phase 1: sample all flop D pins and SRAM ports.
  std::vector<std::pair<std::size_t, char>> next_states;
  for (std::size_t gi = 0; gi < gates_.size(); ++gi) {
    GateInfo& info = gates_[gi];
    if (!info.sequential || info.cell->def.is_latch) continue;
    const netlist::NetId d = info.inputs.empty() ? netlist::kNoNet
                                                 : info.inputs[0];
    const char v =
        (d != netlist::kNoNet && values_[static_cast<std::size_t>(d)]) ? 1
                                                                       : 0;
    next_states.emplace_back(gi, v);
  }
  struct SramOp {
    const netlist::SramMacro* macro;
    std::uint64_t addr = 0;
    std::uint64_t din = 0;
    bool we = false;
  };
  std::vector<SramOp> ops;
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
  // Phase 2: commit.
  for (const auto& [gi, v] : next_states) {
    GateInfo& info = gates_[gi];
    if (info.state != v) {
      info.state = v;
      const netlist::NetId q = info.outputs[0];
      if (q != netlist::kNoNet) {
        const auto qi = static_cast<std::size_t>(q);
        values_[qi] = v;
        ++toggle_counts_[qi];
        ++total_toggles_;
        enqueue_sinks(q);
      }
    }
  }
  for (const auto& op : ops) {
    auto& mem = srams_[op.macro->name];
    if (op.we) mem[op.addr % static_cast<std::uint64_t>(op.macro->rows)] =
        op.din;
    const auto it = mem.find(op.addr % static_cast<std::uint64_t>(
        op.macro->rows));
    const std::uint64_t dout = it == mem.end() ? 0 : it->second;
    for (std::size_t i = 0; i < op.macro->data_out.size() && i < 64; ++i) {
      const bool bit = (dout >> i) & 1u;
      const auto ni = static_cast<std::size_t>(op.macro->data_out[i]);
      if (values_[ni] != static_cast<char>(bit)) {
        values_[ni] = bit ? 1 : 0;
        ++toggle_counts_[ni];
        ++total_toggles_;
        enqueue_sinks(op.macro->data_out[i]);
      }
    }
  }
  settle();
}

bool Simulator::get(netlist::NetId net) const {
  return values_.at(static_cast<std::size_t>(net)) != 0;
}

std::uint64_t Simulator::get_bus(
    const std::vector<netlist::NetId>& bus) const {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < bus.size() && i < 64; ++i)
    if (get(bus[i])) out |= (1ull << i);
  return out;
}

std::uint64_t Simulator::toggles(netlist::NetId net) const {
  return toggle_counts_.at(static_cast<std::size_t>(net));
}

double Simulator::activity(netlist::NetId net) const {
  if (edges_ == 0) return 0.0;
  return static_cast<double>(toggles(net)) / static_cast<double>(edges_);
}

void Simulator::sram_write(const std::string& macro_name, std::uint64_t addr,
                           std::uint64_t value) {
  srams_.at(macro_name)[addr] = value;
}

std::uint64_t Simulator::sram_read(const std::string& macro_name,
                                   std::uint64_t addr) const {
  const auto& mem = srams_.at(macro_name);
  const auto it = mem.find(addr);
  return it == mem.end() ? 0 : it->second;
}

}  // namespace cryo::gatesim
