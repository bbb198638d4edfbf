// Event-driven timing-annotated gate-level simulator.
//
// Where the zero-delay Simulator settles combinational logic to a
// fixpoint (the functional oracle), EventSimulator advances a global
// femtosecond clock through a calendar queue of pending net transitions:
//
//   * every gate output transition is scheduled one NLDM-interpolated
//     propagation delay after its cause — the arc's delay table evaluated
//     at the nominal input slew and the output net's actual capacitive
//     load (fanout pin caps), so a NAND2_X1 into 12 sinks is slower than
//     one into 1, exactly as STA sees it;
//   * delays are inertial: a scheduled transition that the driving gate
//     revokes before it matures (the classic reconvergent-path pulse
//     shorter than the gate delay) is cancelled and counted as a glitch
//     instead of toggling the net;
//   * flops are master-slave (all D pins sample before any Q moves) with
//     clock->Q launched one clk->Q arc delay after the edge; SRAM macros
//     are synchronous word memories with a configurable access delay —
//     both matching the zero-delay Simulator's functional behavior, so
//     the two cores are equivalence-checked gate for gate;
//   * per-net toggle and glitch counters accumulate the measured
//     switching activity that power analysis consumes (activity.hpp).
//
// The constructor resolves everything a clock edge needs: the list of
// edge-triggered flops (an edge visits those, not every gate) and, per
// SRAM macro, its word memory and MacroStats entry (no string-keyed
// lookup per edge). Each gate carries its outputs' truth tables, so an
// evaluation touches only the gate's own record.
//
// Determinism contract: events are totally ordered by (time, sequence)
// in the calendar queue and fanout is walked in netlist order, so two
// runs of the same stimulus produce byte-identical values, counters, and
// event statistics at any queue size.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "charlib/library.hpp"
#include "gatesim/calendar_queue.hpp"
#include "gatesim/gatesim.hpp"
#include "netlist/netlist.hpp"

namespace cryo::gatesim {

struct EventSimConfig {
  double clock_period = 1e-9;          // [s] spacing of clock_edge()s
  double nominal_slew = 10e-12;        // [s] NLDM input-slew coordinate
  double default_gate_delay = 1e-12;   // [s] fallback when a cell has no
                                       // characterized arc tables
  double sram_access_delay = 100e-12;  // [s] clock edge -> data_out
  double wire_cap_per_fanout = 0.1e-15;  // [F] stub wire load per sink
  // Event budget per settle window (between stimuli / after an edge);
  // 0 derives gates*256 + 65536. Exceeding it throws SettleError naming
  // the hottest net.
  std::uint64_t max_events_per_settle = 0;
};

struct EventStats {
  std::uint64_t events = 0;              // committed net transitions
  std::uint64_t glitches_cancelled = 0;  // inertial pulse cancellations
  std::uint64_t stale_skipped = 0;       // superseded queue entries
  std::uint64_t queue_resizes = 0;       // calendar-queue rebuilds
  std::uint64_t edges = 0;               // clock edges simulated
  std::uint64_t now_fs = 0;              // current simulation time [fs]
};

class EventSimulator {
 public:
  EventSimulator(const netlist::Netlist& netlist,
                 const charlib::Library& library, EventSimConfig config = {});
  // The resolved SRAM ports point into this object's own maps.
  EventSimulator(const EventSimulator&) = delete;
  EventSimulator& operator=(const EventSimulator&) = delete;

  // Drives a primary input (or any net) at the current time and runs the
  // event queue dry (all downstream transitions committed).
  void set(netlist::NetId net, bool value);
  void set_bus(const std::vector<netlist::NetId>& bus, std::uint64_t value);

  // Rising clock edge: settle, sample all flop D pins and SRAM ports,
  // launch Q/data_out transitions after their clk->Q / access delays,
  // then settle again.
  void clock_edge();

  bool get(netlist::NetId net) const;
  std::uint64_t get_bus(const std::vector<netlist::NetId>& bus) const;

  std::uint64_t toggles(netlist::NetId net) const;
  std::uint64_t glitches(netlist::NetId net) const;
  std::uint64_t total_toggles() const { return total_toggles_; }
  double activity(netlist::NetId net) const;

  void sram_write(const std::string& macro_name, std::uint64_t addr,
                  std::uint64_t value);
  std::uint64_t sram_read(const std::string& macro_name,
                          std::uint64_t addr) const;

  // Measured macro traffic: an access with a new address counts as a
  // read, an asserted write-enable as a write (both per clock edge).
  struct MacroStats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t last_addr = ~0ull;
  };
  const std::map<std::string, MacroStats>& macro_stats() const {
    return macro_stats_;
  }

  const EventStats& stats() const { return stats_; }
  const EventSimConfig& config() const { return cfg_; }

 private:
  struct Transition {
    netlist::NetId net = netlist::kNoNet;
    char value = 0;
  };

  // A gate's record; its pins, truth tables and delays live in flat
  // arrays shared by all gates, so an evaluation reads a few adjacent
  // words instead of following per-gate heap vectors.
  struct GateInfo {
    std::uint32_t first_input = 0;   // inputs: pins_[first_input + i]
    std::uint32_t first_output = 0;  // outputs: outputs_[first_output + o]
    // Combinational: per output, per driving input, the propagation
    // delay [fs] of a rising and a falling output transition (NLDM at
    // nominal slew, actual load), at
    // delay_fs_[first_delay + (o * (inputs + 1) + i) * 2 + (rise ? 0 : 1)].
    // Sequential: the clk->Q rise and fall delays.
    std::uint32_t first_delay = 0;
    std::uint16_t inputs = 0;
    std::uint16_t outputs = 0;
    netlist::NetId enable = netlist::kNoNet;  // clock (DFF) / enable (latch)
    bool sequential = false;
    bool is_latch = false;
    char state = 0;
  };
  struct Output {
    netlist::NetId net = netlist::kNoNet;
    std::uint32_t truth = 0;  // CellDef's table (combinational outputs)
  };
  struct Sink {
    std::uint32_t gate = 0;
    std::uint32_t input = 0;  // index past the data inputs: clock/enable
  };

  std::uint64_t to_fs(double seconds) const;
  std::uint64_t arc_delay_fs(const charlib::CellChar& cell,
                             std::size_t output_index,
                             std::size_t input_index, bool rise,
                             double load) const;
  netlist::NetId first_output_net(const GateInfo& info) const {
    return info.outputs ? outputs_[info.first_output].net : netlist::kNoNet;
  }

  // Projects the net's future value (pending target if any, else current)
  // and schedules/cancels so exactly the needed transition is in flight.
  void schedule_output(netlist::NetId net, bool new_value,
                       std::uint64_t at_fs);
  void eval_gate(std::size_t gate_index, std::size_t cause_input,
                 std::uint64_t now_fs);
  void commit(netlist::NetId net, bool value, std::uint64_t now_fs);
  // Runs the queue dry; throws SettleError past the event budget.
  void drain();

  const netlist::Netlist& nl_;
  EventSimConfig cfg_;
  std::uint64_t period_fs_ = 0;
  std::uint64_t sram_delay_fs_ = 0;
  std::uint64_t event_budget_ = 0;

  std::vector<char> values_;
  std::vector<std::uint64_t> toggle_counts_;
  std::vector<std::uint64_t> glitch_counts_;
  std::uint64_t total_toggles_ = 0;

  // Inertial pending transition per net: the seq of the only live queue
  // entry (entries whose seq no longer matches are stale and skipped).
  static constexpr std::uint64_t kNoPending = ~0ull;
  std::vector<std::uint64_t> pending_seq_;
  std::vector<char> pending_value_;

  std::vector<GateInfo> gates_;
  std::vector<netlist::NetId> pins_;  // every gate's inputs, gate order
  std::vector<Output> outputs_;       // every gate's outputs, gate order
  std::vector<std::uint64_t> delay_fs_;
  std::vector<std::uint32_t> flops_;  // edge-triggered gates, netlist order
  // net -> the sinks a transition evaluates, in netlist order:
  // sinks_[sink_begin_[n], sink_begin_[n + 1]).
  std::vector<std::uint32_t> sink_begin_;
  std::vector<Sink> sinks_;
  std::vector<int> net_driver_;  // net -> driving gate (-1: primary/SRAM)
  std::vector<netlist::NetId> scratch_;  // set_bus changed-net workspace

  CalendarQueue<Transition> queue_;
  EventStats stats_;

  std::map<std::string, std::map<std::uint64_t, std::uint64_t>> srams_;
  std::map<std::string, MacroStats> macro_stats_;

  // One per SRAM macro, in netlist order: its resolved memory and stats
  // plus the port values sampled at the current edge.
  struct SramPort {
    const netlist::SramMacro* macro = nullptr;
    std::map<std::uint64_t, std::uint64_t>* mem = nullptr;
    MacroStats* stats = nullptr;
    std::uint64_t addr = 0;
    std::uint64_t din = 0;
    bool we = false;
  };
  std::vector<SramPort> sram_ports_;
};

}  // namespace cryo::gatesim
