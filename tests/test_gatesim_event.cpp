#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "core/artifacts.hpp"
#include "core/flow.hpp"
#include "gatesim/activity.hpp"
#include "gatesim/calendar_queue.hpp"
#include "gatesim/event_sim.hpp"
#include "gatesim/gatesim.hpp"
#include "liberty/liberty.hpp"
#include "netlist/soc_gen.hpp"
#include "obs/metrics.hpp"
#include "power/power.hpp"
#include "riscv/workloads.hpp"
#include "sram/sram.hpp"

namespace cryo::gatesim {
namespace {

charlib::Library function_library() {
  charlib::Library lib;
  lib.name = "func_only";
  for (const auto& def : cells::standard_cells({})) {
    charlib::CellChar cc;
    cc.def = def;
    lib.cells.push_back(std::move(cc));
  }
  return lib;
}

const charlib::Library& lib() {
  static const charlib::Library l = function_library();
  return l;
}

// --- Calendar queue ----------------------------------------------------------

TEST(CalendarQueue, PopsInTimeOrder) {
  CalendarQueue<int> q;
  Rng rng(7);
  std::vector<std::uint64_t> times;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t t = rng.word() % 1'000'000;
    times.push_back(t);
    q.push(t, i);
  }
  std::sort(times.begin(), times.end());
  for (std::uint64_t expected : times) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.pop().time, expected);
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, TieBreakIsPushOrder) {
  CalendarQueue<int> q;
  // Interleave two times; equal-time events must pop in push order.
  for (int i = 0; i < 50; ++i) q.push(i % 2 ? 100 : 200, i);
  int last_odd = -1, last_even = -1;
  for (int i = 0; i < 50; ++i) {
    const auto e = q.pop();
    if (e.time == 100) {
      EXPECT_GT(e.payload, last_odd);
      last_odd = e.payload;
      EXPECT_FALSE(last_even >= 0);  // all t=100 pop before any t=200
    } else {
      EXPECT_GT(e.payload, last_even);
      last_even = e.payload;
    }
  }
}

TEST(CalendarQueue, WrapAroundAndResize) {
  CalendarQueue<int> q(16, 16);  // tiny year: 16 buckets x 16 ticks
  // Push far more events than buckets, spanning many year wrap-arounds,
  // with interleaved pops so the sweep cursor keeps moving.
  Rng rng(3);
  std::uint64_t t = 0;
  std::uint64_t last = 0;
  std::size_t pushed = 0, popped = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 40; ++i) {
      t += rng.word() % 97;
      q.push(t, static_cast<int>(pushed++));
    }
    for (int i = 0; i < 25 && !q.empty(); ++i) {
      const auto e = q.pop();
      EXPECT_GE(e.time, last);
      last = e.time;
      ++popped;
    }
  }
  while (!q.empty()) {
    const auto e = q.pop();
    EXPECT_GE(e.time, last);
    last = e.time;
    ++popped;
  }
  EXPECT_EQ(popped, pushed);
  EXPECT_GT(q.resizes(), 0u);  // load factor forced rebuilds
}

TEST(CalendarQueue, DeterministicPopStream) {
  // Two queues fed the same (time, payload) stream observe identical pop
  // streams, resizes included.
  CalendarQueue<int> a, b;
  Rng rng(11);
  std::vector<std::pair<std::uint64_t, int>> stream;
  for (int i = 0; i < 2000; ++i)
    stream.emplace_back(rng.word() % 50'000, i);
  for (const auto& [t, p] : stream) {
    a.push(t, p);
    b.push(t, p);
  }
  while (!a.empty()) {
    ASSERT_FALSE(b.empty());
    const auto ea = a.pop();
    const auto eb = b.pop();
    EXPECT_EQ(ea.time, eb.time);
    EXPECT_EQ(ea.seq, eb.seq);
    EXPECT_EQ(ea.payload, eb.payload);
  }
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(a.resizes(), b.resizes());
}

// --- Event-driven simulator: equivalence with the fixpoint oracle ------------

TEST(EventSim, AdderMatchesFixpointOracle) {
  static const netlist::Netlist adder = netlist::build_adder(64, 8);
  Simulator oracle(adder, lib());
  EventSimulator sim(adder, lib());
  std::vector<netlist::NetId> a_bus, b_bus;
  for (int i = 0; i < 64; ++i) {
    a_bus.push_back(adder.net("a[" + std::to_string(i) + "]"));
    b_bus.push_back(adder.net("b[" + std::to_string(i) + "]"));
  }
  Rng rng(5);
  for (int trial = 0; trial < 8; ++trial) {
    const std::uint64_t a = rng.word();
    const std::uint64_t b = rng.word();
    oracle.set_bus(a_bus, a);
    oracle.set_bus(b_bus, b);
    sim.set_bus(a_bus, a);
    sim.set_bus(b_bus, b);
    EXPECT_EQ(sim.get_bus(adder.outputs()), a + b) << "a=" << a << " b=" << b;
    // Bit-for-bit equal to the oracle on every net of the output bus.
    EXPECT_EQ(sim.get_bus(adder.outputs()), oracle.get_bus(adder.outputs()));
  }
  EXPECT_GT(sim.stats().events, 0u);
}

TEST(EventSim, PipelinedMultiplierMatchesFixpointOracle) {
  const auto mul = netlist::build_multiplier(16, true);
  Simulator oracle(mul, lib());
  EventSimulator sim(mul, lib());
  std::vector<netlist::NetId> a_bus, b_bus;
  for (int i = 0; i < 16; ++i) {
    a_bus.push_back(mul.net("a[" + std::to_string(i) + "]"));
    b_bus.push_back(mul.net("b[" + std::to_string(i) + "]"));
  }
  Rng rng(9);
  for (int trial = 0; trial < 4; ++trial) {
    const std::uint64_t a = rng.word() & 0xFFFF;
    const std::uint64_t b = rng.word() & 0xFFFF;
    oracle.set_bus(a_bus, a);
    oracle.set_bus(b_bus, b);
    sim.set_bus(a_bus, a);
    sim.set_bus(b_bus, b);
    oracle.clock_edge();
    oracle.clock_edge();
    sim.clock_edge();
    sim.clock_edge();
    EXPECT_EQ(sim.get_bus(mul.outputs()), oracle.get_bus(mul.outputs()));
    EXPECT_EQ(sim.get_bus(mul.outputs()) & 0xFFFF, (a * b) & 0xFFFF);
  }
}

TEST(EventSim, FlopCaptureSemantics) {
  netlist::Netlist nl("shiftreg");
  const auto d = nl.add_net("d");
  const auto clk = nl.add_net("clk");
  nl.add_input(d);
  nl.add_input(clk);
  nl.set_clock(clk);
  const auto q1 = nl.add_net("q1"), q2 = nl.add_net("q2");
  nl.add_gate("ff1", "DFF_X1", {{"D", d}, {"CLK", clk}, {"Q", q1}});
  nl.add_gate("ff2", "DFF_X1", {{"D", q1}, {"CLK", clk}, {"Q", q2}});
  EventSimulator sim(nl, lib());
  sim.set(d, true);
  sim.clock_edge();
  EXPECT_TRUE(sim.get(q1));
  EXPECT_FALSE(sim.get(q2));  // master-slave: old q1 captured
  sim.clock_edge();
  EXPECT_TRUE(sim.get(q2));
  EXPECT_EQ(sim.stats().edges, 2u);
}

TEST(EventSim, SramReadWrite) {
  netlist::Netlist nl("mem");
  const auto clk = nl.add_net("clk");
  nl.add_input(clk);
  nl.set_clock(clk);
  netlist::SramMacro m;
  m.name = "m0";
  m.rows = 64;
  m.cols = 16;
  m.clock = clk;
  m.address = nl.add_bus("addr", 6);
  m.data_in = nl.add_bus("din", 16);
  m.data_out = nl.add_bus("dout", 16);
  m.write_enable = nl.add_net("we");
  nl.add_sram(m);
  EventSimulator sim(nl, lib());
  sim.set_bus(nl.srams()[0].address, 5);
  sim.set_bus(nl.srams()[0].data_in, 0xABCD);
  sim.set(nl.srams()[0].write_enable, true);
  sim.clock_edge();  // write + readout, matching the zero-delay oracle
  EXPECT_EQ(sim.get_bus(nl.srams()[0].data_out), 0xABCDu);
  sim.set(nl.srams()[0].write_enable, false);
  sim.set_bus(nl.srams()[0].address, 6);
  sim.clock_edge();
  EXPECT_EQ(sim.get_bus(nl.srams()[0].data_out), 0u);
  EXPECT_EQ(sim.sram_read("m0", 5), 0xABCDu);
  const auto& ms = sim.macro_stats().at("m0");
  EXPECT_EQ(ms.writes, 1u);
  EXPECT_GE(ms.reads, 1u);
}

// --- Inertial-delay glitch semantics -----------------------------------------

// xor(a, inv(a)) with equal path delays: the input edge races itself and
// the output pulse is shorter than the gate delay, so inertial filtering
// cancels it — the classic static-hazard glitch.
TEST(EventSim, BalancedReconvergenceCancelsGlitch) {
  netlist::Netlist nl("hazard");
  const auto a = nl.add_net("a");
  nl.add_input(a);
  const auto n1 = nl.add_net("n1");
  const auto y = nl.add_net("y");
  nl.add_gate("i0", "INV_X1", {{"A", a}, {"Y", n1}});
  nl.add_gate("x0", "XOR2_X1", {{"A", a}, {"B", n1}, {"Y", y}});
  EventSimulator sim(nl, lib());
  const auto t0 = sim.toggles(y);
  const auto g0 = sim.glitches(y);
  sim.set(a, true);
  EXPECT_TRUE(sim.get(y));  // steady state: a ^ !a == 1
  EXPECT_EQ(sim.toggles(y), t0);      // the pulse never toggled the net
  EXPECT_EQ(sim.glitches(y), g0 + 1);
  EXPECT_GT(sim.stats().glitches_cancelled, 0u);
}

// The same hazard with three buffers padding the inverting path: the
// pulse is now wider than the gate delay, matures, and toggles twice.
TEST(EventSim, UnbalancedReconvergencePropagatesPulse) {
  netlist::Netlist nl("pulse");
  const auto a = nl.add_net("a");
  nl.add_input(a);
  const auto n1 = nl.add_net("n1");
  const auto b1 = nl.add_net("b1"), b2 = nl.add_net("b2"),
             b3 = nl.add_net("b3");
  const auto y = nl.add_net("y");
  nl.add_gate("i0", "INV_X1", {{"A", a}, {"Y", n1}});
  nl.add_gate("u1", "BUF_X1", {{"A", n1}, {"Y", b1}});
  nl.add_gate("u2", "BUF_X1", {{"A", b1}, {"Y", b2}});
  nl.add_gate("u3", "BUF_X1", {{"A", b2}, {"Y", b3}});
  nl.add_gate("x0", "XOR2_X1", {{"A", a}, {"B", b3}, {"Y", y}});
  EventSimulator sim(nl, lib());
  const auto t0 = sim.toggles(y);
  const auto g0 = sim.glitches(y);
  sim.set(a, true);
  EXPECT_TRUE(sim.get(y));
  EXPECT_EQ(sim.toggles(y), t0 + 2);  // full pulse: fall then rise
  EXPECT_EQ(sim.glitches(y), g0);
}

// --- Combinational-loop diagnostics ------------------------------------------

netlist::Netlist ring_oscillator() {
  netlist::Netlist nl("ring");
  const auto r0 = nl.add_net("r0"), r1 = nl.add_net("r1"),
             r2 = nl.add_net("r2");
  nl.add_gate("i0", "INV_X1", {{"A", r0}, {"Y", r1}});
  nl.add_gate("i1", "INV_X1", {{"A", r1}, {"Y", r2}});
  nl.add_gate("i2", "INV_X1", {{"A", r2}, {"Y", r0}});
  return nl;
}

TEST(EventSim, OscillationThrowsStructuredSettleError) {
  const auto nl = ring_oscillator();
  EventSimConfig cfg;
  cfg.max_events_per_settle = 5000;
  try {
    EventSimulator sim(nl, lib(), cfg);
    FAIL() << "ring oscillator must not settle";
  } catch (const SettleError& e) {
    EXPECT_FALSE(e.net_name.empty());
    EXPECT_FALSE(e.gate_name.empty());
    EXPECT_GE(e.evaluations, cfg.max_events_per_settle);
    EXPECT_NE(std::string(e.what()).find(e.net_name), std::string::npos);
  }
}

TEST(GateSimOracle, OscillationThrowsStructuredSettleError) {
  const auto nl = ring_oscillator();
  try {
    Simulator sim(nl, lib());
    FAIL() << "ring oscillator must not settle";
  } catch (const SettleError& e) {
    // The diagnostic names an offending gate and its output net.
    EXPECT_TRUE(e.gate_name == "i0" || e.gate_name == "i1" ||
                e.gate_name == "i2")
        << e.gate_name;
    EXPECT_FALSE(e.net_name.empty());
    EXPECT_GT(e.evaluations, 0u);
  }
}

TEST(GateSimOracle, LoopFreeLogicStillSettles) {
  // The bounded settle must not fire on deep but acyclic logic.
  const auto adder = netlist::build_adder(64, 8);
  Simulator sim(adder, lib());
  std::vector<netlist::NetId> a_bus, b_bus;
  for (int i = 0; i < 64; ++i) {
    a_bus.push_back(adder.net("a[" + std::to_string(i) + "]"));
    b_bus.push_back(adder.net("b[" + std::to_string(i) + "]"));
  }
  sim.set_bus(a_bus, ~0ull);
  sim.set_bus(b_bus, 1);  // worst-case carry ripple across every block
  EXPECT_EQ(sim.get_bus(adder.outputs()), 0ull);
}

// --- Workload activity extraction --------------------------------------------

class SocActivity : public ::testing::Test {
 protected:
  static const netlist::Netlist& soc() {
    static const netlist::Netlist nl = [] {
      netlist::SocConfig cfg;
      cfg.l1i_kb = 2;
      cfg.l1d_kb = 2;
      cfg.l2_kb = 16;
      cfg.include_multiplier = false;
      return netlist::build_soc(cfg);
    }();
    return nl;
  }

  static const std::vector<riscv::TraceEntry>& trace() {
    static const std::vector<riscv::TraceEntry> t = [] {
      std::vector<riscv::TraceEntry> sink;
      riscv::Cpu cpu;
      cpu.set_trace(&sink);
      const auto program = riscv::dhrystone_like(2);
      cpu.load_program(program);
      cpu.run(program.base, 20'000);
      return sink;
    }();
    return t;
  }
};

TEST_F(SocActivity, DeckCarriesInstructionStream) {
  ASSERT_FALSE(trace().empty());
  const auto deck = make_soc_deck(soc(), trace(), 40);
  EXPECT_EQ(deck.cycles.size(), 40u);
  EXPECT_FALSE(deck.preloads.empty());  // L1I image at minimum
  bool has_l1i = false;
  for (const auto& p : deck.preloads)
    has_l1i |= p.macro.rfind("l1i_", 0) == 0;
  EXPECT_TRUE(has_l1i);
}

TEST_F(SocActivity, MeasuredActivityCrossChecksIss) {
  const auto deck = make_soc_deck(soc(), trace(), 40);
  ActivityExtractor extractor(soc(), lib());
  const auto act = extractor.extract(deck, 1e9);

  // One deck cycle per retired instruction: the gatesim window covers
  // exactly the instructions it was built from, and the ISS charges at
  // least one cycle per instruction (CPI >= 1), so its cycle count for
  // the same window bounds ours from above.
  EXPECT_EQ(act.cycles, 40u);
  ASSERT_GE(trace().size(), 40u);
  EXPECT_GE(trace()[39].cycle, act.cycles);

  EXPECT_GT(act.events, 0u);
  std::uint64_t toggled_nets = 0;
  for (const auto t : act.net_toggles) toggled_nets += t > 0;
  EXPECT_GT(toggled_nets, 100u);  // a real workload exercises the SoC
  // Instruction fetch traffic shows up as measured l1i reads.
  double l1i_reads = 0.0;
  for (const auto& [name, rate] : act.sram_reads_per_cycle)
    if (name.rfind("l1i_", 0) == 0) l1i_reads += rate;
  EXPECT_GT(l1i_reads, 0.0);
}

TEST_F(SocActivity, ExtractionIsByteDeterministic) {
  const auto deck = make_soc_deck(soc(), trace(), 25);
  ActivityExtractor first(soc(), lib());
  ActivityExtractor second(soc(), lib());
  const auto a = first.extract(deck, 1e9);
  const auto b = second.extract(deck, 1e9);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.glitches, b.glitches);
  EXPECT_EQ(a.net_toggles, b.net_toggles);
}

// Exact counts recorded with the straightforward simulators (every gate
// scanned per clock edge, string-keyed SRAM lookups, byte-wise ISS
// memory): the fast paths must reproduce them bit for bit.
TEST_F(SocActivity, GoldenCounts) {
  EXPECT_EQ(trace().size(), 5018u);
  EXPECT_EQ(trace().back().cycle, 11598u);
  const auto deck = make_soc_deck(soc(), trace(), 40);
  ActivityExtractor extractor(soc(), lib());
  const auto act = extractor.extract(deck, 1e9);
  EXPECT_EQ(act.events, 3833u);
  EXPECT_EQ(act.glitches, 508u);
  EXPECT_EQ(act.fingerprint(), 10686948223381342463ull);

  // The characterized 300 K library: per-arc NLDM delays, so inertial
  // cancellation and the clk->Q / SRAM access timing all take part.
  const auto lib300 =
      liberty::read_file(core::default_lib_dir() + "/cryo5_300k.lib");
  ActivityExtractor timed(soc(), lib300);
  const auto timed_act = timed.extract(deck, 1e9);
  EXPECT_EQ(timed_act.events, 3879u);
  EXPECT_EQ(timed_act.glitches, 470u);
  EXPECT_EQ(timed_act.fingerprint(), 10640373555744797162ull);
  // When the last transition landed: moves with any per-arc delay.
  EXPECT_EQ(timed.simulator().stats().now_fs, 40542056u);
}

// Recorded with the analyzer that looked up every output's switching
// energy per call: measured power of the golden deck's activity against
// both committed libraries, bit for bit.
TEST_F(SocActivity, MeasuredPowerGolden) {
  const auto deck = make_soc_deck(soc(), trace(), 40);
  const auto lib300 =
      liberty::read_file(core::default_lib_dir() + "/cryo5_300k.lib");
  const auto act = ActivityExtractor(soc(), lib300).extract(deck, 1e9);
  std::string bytes;
  for (const char* stem : {"300k", "10k"}) {
    const auto lib = liberty::read_file(core::default_lib_dir() + "/cryo5_" +
                                        stem + ".lib");
    const sram::SramModel sm(device::golden_nmos(), device::golden_pmos(),
                             lib.temperature);
    const power::PowerReport r =
        power::PowerAnalyzer(soc(), lib, sm).analyze(act);
    for (const double v : {r.dynamic_logic, r.dynamic_sram, r.dynamic_glitch,
                           r.leakage_logic, r.leakage_sram})
      bytes.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  EXPECT_EQ(core::fnv1a64(bytes), 0x9bed43955c73c4e0ull);
}

TEST_F(SocActivity, ObsCountersAccumulate) {
  const auto deck = make_soc_deck(soc(), trace(), 10);
  const auto before = obs::registry().counter("gatesim.events").value();
  ActivityExtractor extractor(soc(), lib());
  const auto act = extractor.extract(deck, 1e9);
  const auto after = obs::registry().counter("gatesim.events").value();
  EXPECT_GE(after - before, act.events);
}

}  // namespace
}  // namespace cryo::gatesim
