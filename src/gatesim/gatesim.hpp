// Event-driven two-valued gate-level logic simulator.
//
// Validates the generated netlists against reference functions (the
// 64-bit adder really adds, the multiplier really multiplies) and counts
// toggles for activity extraction on small blocks. Combinational logic
// settles to a fixpoint after each stimulus; flops have master-slave
// semantics (all D pins sample before any Q updates); SRAM macros behave
// as synchronous word memories.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "charlib/library.hpp"
#include "netlist/netlist.hpp"

namespace cryo::gatesim {

// Thrown when combinational settling does not converge (an oscillating
// combinational loop, or an event budget exhausted in the event-driven
// core). Carries the offending gate and net so the diagnostic names the
// loop instead of reporting a bare iteration count.
class SettleError : public std::runtime_error {
 public:
  SettleError(const std::string& what, std::string gate, std::string net,
              std::uint64_t evaluations)
      : std::runtime_error(what + " (gate '" + gate + "', net '" + net +
                           "', " + std::to_string(evaluations) +
                           " evaluations)"),
        gate_name(std::move(gate)),
        net_name(std::move(net)),
        evaluations(evaluations) {}

  std::string gate_name;  // most-evaluated gate when the bound tripped
  std::string net_name;   // its output net
  std::uint64_t evaluations = 0;
};

class Simulator {
 public:
  Simulator(const netlist::Netlist& netlist,
            const charlib::Library& library);

  // Drives a primary input (or any net) and propagates.
  void set(netlist::NetId net, bool value);
  void set_bus(const std::vector<netlist::NetId>& bus, std::uint64_t value);

  // Rising clock edge: flops capture, SRAMs read/write, then settle.
  void clock_edge();

  bool get(netlist::NetId net) const;
  std::uint64_t get_bus(const std::vector<netlist::NetId>& bus) const;

  // Toggle statistics since construction (per net and total).
  std::uint64_t toggles(netlist::NetId net) const;
  std::uint64_t total_toggles() const { return total_toggles_; }
  // Toggle probability per net per clock edge seen so far.
  double activity(netlist::NetId net) const;

  // Direct SRAM content access for test setup/inspection.
  void sram_write(const std::string& macro_name, std::uint64_t addr,
                  std::uint64_t value);
  std::uint64_t sram_read(const std::string& macro_name,
                          std::uint64_t addr) const;

 private:
  void settle();
  void enqueue_sinks(netlist::NetId net);
  bool eval_gate(std::size_t gate_index);

  const netlist::Netlist& nl_;
  std::vector<char> values_;
  std::vector<std::uint64_t> toggle_counts_;
  std::uint64_t total_toggles_ = 0;
  std::uint64_t edges_ = 0;

  // gate index -> cached cell pointer and input/output net ids.
  struct GateInfo {
    const charlib::CellChar* cell = nullptr;
    std::vector<netlist::NetId> inputs;
    std::vector<netlist::NetId> outputs;
    bool sequential = false;
    char state = 0;  // flop/latch internal state
  };
  std::vector<GateInfo> gates_;
  std::vector<std::vector<std::size_t>> net_sinks_;
  std::vector<char> in_queue_;
  std::vector<std::size_t> queue_;
  // Per-gate evaluation counts for the current settle() pass, reset
  // lazily via a generation stamp so settling stays allocation-free.
  std::vector<std::uint32_t> eval_count_;
  std::vector<std::uint32_t> eval_gen_;
  std::uint32_t settle_gen_ = 0;

  std::map<std::string, std::map<std::uint64_t, std::uint64_t>> srams_;
};

}  // namespace cryo::gatesim
