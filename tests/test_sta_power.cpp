#include <gtest/gtest.h>

#include "charlib/characterizer.hpp"
#include "core/artifacts.hpp"
#include "core/flow.hpp"
#include "liberty/liberty.hpp"
#include "netlist/soc_gen.hpp"
#include "power/power.hpp"
#include "sram/sram.hpp"
#include "sta/sta.hpp"
#include "common/units.hpp"
#include "synth/synth.hpp"

namespace cryo {
namespace {

// Shared fast library (small grid) with the cells the mini netlists use.
const charlib::Library& mini_lib() {
  static const charlib::Library lib = [] {
    charlib::CharOptions opt;
    opt.temperature = 300.0;
    opt.slews = {2e-12, 8e-12, 32e-12};
    opt.loads = {0.5e-15, 2e-15, 8e-15};
    opt.characterize_setup_hold = true;
    charlib::Characterizer ch(device::golden_nmos(), device::golden_pmos(),
                              opt);
    cells::CatalogOptions copt;
    copt.only_bases = {"INV", "BUF", "NAND2", "DFF"};
    copt.drives = {1, 2, 4, 8};
    copt.include_slvt = false;
    return ch.characterize_all(cells::standard_cells(copt), "mini_sta");
  }();
  return lib;
}

sram::SramModel model300() {
  return sram::SramModel(device::golden_nmos(), device::golden_pmos(),
                         300.0);
}

// Flop -> inverter chain -> flop.
netlist::Netlist chain_netlist(int length) {
  netlist::Netlist nl("chain");
  const auto clk = nl.add_net("clk");
  nl.add_input(clk);
  nl.set_clock(clk);
  const auto d0 = nl.add_net("d0");
  nl.add_input(d0);
  const auto q0 = nl.add_net("q0");
  nl.add_gate("launch", "DFF_X1", {{"D", d0}, {"CLK", clk}, {"Q", q0}});
  netlist::NetId prev = q0;
  for (int i = 0; i < length; ++i) {
    const auto next = nl.add_net("n" + std::to_string(i));
    nl.add_gate("inv" + std::to_string(i), "INV_X1",
                {{"A", prev}, {"Y", next}});
    prev = next;
  }
  const auto qf = nl.add_net("qf");
  nl.add_gate("capture", "DFF_X1", {{"D", prev}, {"CLK", clk}, {"Q", qf}});
  nl.add_output(qf);
  return nl;
}

TEST(Sta, ChainDelayGrowsLinearly) {
  const auto nl4 = chain_netlist(4);
  const auto nl12 = chain_netlist(12);
  const auto sm = model300();
  const double d4 =
      sta::StaEngine(nl4, mini_lib(), sm).run().critical_delay;
  const double d12 =
      sta::StaEngine(nl12, mini_lib(), sm).run().critical_delay;
  EXPECT_GT(d12, d4 * 1.8);
  EXPECT_LT(d12, d4 * 3.5);
}

TEST(Sta, ReportsCriticalPathSteps) {
  const auto nl = chain_netlist(6);
  const auto sm = model300();
  const auto report = sta::StaEngine(nl, mini_lib(), sm).run();
  EXPECT_EQ(report.critical_endpoint, "capture/D");
  // Launch flop + 6 inverters on the path.
  EXPECT_GE(report.critical_path.size(), 7u);
  EXPECT_GT(report.fmax, 1e8);
  // Arrivals strictly increase along the path.
  for (std::size_t i = 1; i < report.critical_path.size(); ++i)
    EXPECT_GT(report.critical_path[i].arrival,
              report.critical_path[i - 1].arrival);
}

TEST(Sta, DetectsCombinationalLoop) {
  netlist::Netlist nl("loop");
  const auto a = nl.add_net("a"), b = nl.add_net("b");
  nl.add_gate("i1", "INV_X1", {{"A", a}, {"Y", b}});
  nl.add_gate("i2", "INV_X1", {{"A", b}, {"Y", a}});
  const auto sm = model300();
  sta::StaEngine engine(nl, mini_lib(), sm);
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(Sta, HoldSlackReported) {
  const auto nl = chain_netlist(2);
  const auto sm = model300();
  const auto report = sta::StaEngine(nl, mini_lib(), sm).run();
  // Short path exists but the flop hold time is small; slack is finite.
  EXPECT_TRUE(report.has_hold_endpoints);
  EXPECT_LT(report.worst_hold_slack, 1e-9);
  EXPECT_GT(report.worst_hold_slack, -50e-12);
}

TEST(Sta, UndrivenConeIsNotALoop) {
  // A cone rooted at a gate with an unconnected input pin: the root pops
  // with no timeable arc (output stays unconstrained), and its sinks must
  // still be released so the cone drains from the ready queue — the old
  // sink-release skip reported it as a spurious combinational loop. The
  // driven flop-to-flop path must still be timed normally.
  const auto sm = model300();
  netlist::Netlist nl = chain_netlist(2);
  const auto u1 = nl.add_net("u1");
  const auto u2 = nl.add_net("u2");
  nl.add_gate("dang1", "INV_X1", {{"Y", u1}});  // input pin unconnected
  nl.add_gate("dang2", "INV_X1", {{"A", u1}, {"Y", u2}});
  nl.add_output(u2);

  sta::StaEngine engine(nl, mini_lib(), sm);
  sta::TimingReport report;
  ASSERT_NO_THROW(report = engine.run());
  // The driven path still produces a critical path ending at the capture
  // flop; the dangling cone contributes no endpoint.
  EXPECT_EQ(report.critical_endpoint, "capture/D");
  EXPECT_GT(report.critical_delay, 0.0);
}

TEST(Sta, NoHoldEndpointsNormalizesSlack) {
  // Every endpoint unconstrained (a PO fed only by a dangling cone): no
  // hold check ever happens, and the report must say so explicitly
  // instead of leaking the +1e30 sentinel into worst_hold_slack.
  netlist::Netlist nl("dangling");
  const auto y = nl.add_net("y");
  nl.add_gate("dang", "INV_X1", {{"Y", y}});  // input pin unconnected
  nl.add_output(y);
  const auto sm = model300();
  const auto report = sta::StaEngine(nl, mini_lib(), sm).run();
  EXPECT_FALSE(report.has_hold_endpoints);
  EXPECT_EQ(report.worst_hold_slack, 0.0);
  EXPECT_EQ(report.endpoint_count, 0u);
}

// --- Synthesis ---------------------------------------------------------------

TEST(Synth, BuffersHighFanout) {
  netlist::Netlist nl("fanout");
  const auto clk = nl.add_net("clk");
  nl.set_clock(clk);
  const auto d = nl.add_net("d");
  nl.add_input(d);
  const auto hub = nl.add_net("hub");
  nl.add_gate("drv", "INV_X1", {{"A", d}, {"Y", hub}});
  for (int i = 0; i < 64; ++i) {
    const auto y = nl.add_net("y" + std::to_string(i));
    nl.add_gate("sink" + std::to_string(i), "INV_X1",
                {{"A", hub}, {"Y", y}});
  }
  synth::SynthOptions no_fanout;
  no_fanout.max_fanout = 0;  // no group size to split sinks by
  EXPECT_THROW(synth::optimize(nl, mini_lib(), no_fanout),
               std::invalid_argument);
  const auto report = synth::optimize(nl, mini_lib());
  EXPECT_GT(report.buffers_inserted, 4u);
  // After buffering, no net drives more than max_fanout gate pins.
  std::map<netlist::NetId, int> fanout;
  for (const auto& g : nl.gates())
    for (const auto& [pin, net] : g.conns)
      if (pin == "A" || pin == "D") ++fanout[net];
  for (const auto& [net, count] : fanout)
    EXPECT_LE(count, 10) << nl.net_name(net);
}

TEST(Synth, SizingUpsizesLoadedDrivers) {
  netlist::Netlist nl("sizing");
  const auto d = nl.add_net("d");
  nl.add_input(d);
  const auto mid = nl.add_net("mid");
  nl.add_gate("drv", "INV_X1", {{"A", d}, {"Y", mid}});
  // Nine sinks is under the fanout limit but a heavy capacitive load.
  for (int i = 0; i < 9; ++i) {
    const auto y = nl.add_net("y" + std::to_string(i));
    nl.add_gate("s" + std::to_string(i), "INV_X8", {{"A", mid}, {"Y", y}});
  }
  synth::optimize(nl, mini_lib());
  EXPECT_NE(nl.gates()[0].cell, "INV_X1");  // upsized
}

// Recorded before sizing moved to resolved cell indices and a delay memo:
// the SoC optimized against the committed 300 K library, gate for gate
// and net for net.
TEST(Synth, SocGolden) {
  auto nl = netlist::build_soc();
  const auto lib =
      liberty::read_file(core::default_lib_dir() + "/cryo5_300k.lib");
  const auto report = synth::optimize(nl, lib);
  EXPECT_EQ(report.buffers_inserted, 1820u);
  EXPECT_EQ(report.gates_resized, 1993u);
  EXPECT_EQ(report.gates_total, 20097u);
  std::string bytes;
  const auto add = [&](const std::string& s) {
    bytes += std::to_string(s.size()) + ':' + s;
  };
  for (const auto& gate : nl.gates()) {
    add(gate.name);
    add(gate.cell);
    for (const auto& [pin, net] : gate.conns)
      add(pin + '=' + std::to_string(net));
  }
  for (std::size_t n = 0; n < nl.net_count(); ++n)
    add(nl.net_name(static_cast<netlist::NetId>(n)));
  EXPECT_EQ(core::fnv1a64(bytes), 0x6b9a2955770bbbfeull);
}

TEST(Synth, ExpressionMapping) {
  netlist::Netlist nl("expr");
  const auto y = synth::map_expression(nl, "(a & b) | !c", "m");
  EXPECT_GT(nl.gates().size(), 2u);
  EXPECT_NE(y, netlist::kNoNet);
  EXPECT_THROW(synth::map_expression(nl, "(a & b", "m"),
               std::invalid_argument);
  EXPECT_THROW(synth::map_expression(nl, "a b", "m"), std::invalid_argument);
}

// --- Power --------------------------------------------------------------------

TEST(Power, LeakageSumsCellLeakage) {
  const auto nl = chain_netlist(4);
  const auto sm = model300();
  power::PowerAnalyzer analyzer(nl, mini_lib(), sm);
  power::ActivityProfile profile;
  profile.clock_frequency = 1e9;
  const auto report = analyzer.analyze(profile);
  double expected = 0.0;
  for (const auto& gate : nl.gates())
    expected += mini_lib().at(gate.cell).leakage_avg;
  EXPECT_NEAR(report.leakage_logic, expected, expected * 1e-9);
}

TEST(Power, DynamicScalesWithFrequencyAndActivity) {
  const auto nl = chain_netlist(8);
  const auto sm = model300();
  power::PowerAnalyzer analyzer(nl, mini_lib(), sm);
  power::ActivityProfile slow;
  slow.clock_frequency = 1e9;
  slow.default_activity = 0.1;
  power::ActivityProfile fast = slow;
  fast.clock_frequency = 2e9;
  power::ActivityProfile busy = slow;
  busy.default_activity = 0.2;
  const double p_slow = analyzer.analyze(slow).dynamic_logic;
  const double p_fast = analyzer.analyze(fast).dynamic_logic;
  const double p_busy = analyzer.analyze(busy).dynamic_logic;
  EXPECT_NEAR(p_fast / p_slow, 2.0, 0.01);
  EXPECT_GT(p_busy, p_slow * 1.3);
}

TEST(Power, SramAccessEnergyCounted) {
  netlist::Netlist nl("mem");
  const auto clk = nl.add_net("clk");
  nl.set_clock(clk);
  netlist::SramMacro m;
  m.name = "l1d_data0";
  m.rows = 512;
  m.cols = 64;
  m.clock = clk;
  nl.add_sram(m);
  const auto sm = model300();
  power::PowerAnalyzer analyzer(nl, mini_lib(), sm);
  power::ActivityProfile idle;
  idle.clock_frequency = 1e9;
  power::ActivityProfile busy = idle;
  busy.sram_reads_per_cycle = {{"l1d", 0.5}};
  EXPECT_GT(analyzer.analyze(busy).dynamic_sram,
            analyzer.analyze(idle).dynamic_sram);
  EXPECT_GT(analyzer.analyze(idle).leakage_sram, 0.0);
}

// --- SRAM macro model -------------------------------------------------------

TEST(Sram, LeakageCollapsesAtCryo) {
  const auto hot = model300();
  const sram::SramModel cold(device::golden_nmos(), device::golden_pmos(),
                             10.0);
  // Paper Fig. 6: 99.76 % leakage reduction.
  EXPECT_GT(hot.leakage_per_bit() / cold.leakage_per_bit(), 100.0);
}

TEST(Sram, SoCLeakageBudgetMatchesPaper) {
  // 581 KB at 300 K leaked 193 mW in the paper; at 10 K it fit easily in
  // the 100 mW cooling budget.
  const double bits = 581.0 * 8192.0;
  const auto hot = model300();
  const sram::SramModel cold(device::golden_nmos(), device::golden_pmos(),
                             10.0);
  const double p_hot = hot.leakage_per_bit() * bits;
  const double p_cold = cold.leakage_per_bit() * bits;
  EXPECT_NEAR(p_hot, 193e-3, 60e-3);
  EXPECT_LT(p_cold, 5e-3);
  EXPECT_GT(p_hot, kCoolingBudget10K);  // infeasible hot
  EXPECT_LT(p_cold, kCoolingBudget10K); // feasible cold
}

TEST(Sram, AccessTimeScalesWithRows) {
  const auto m = model300();
  const double small = m.timing({512, 64}).access_time;
  const double large = m.timing({4096, 64}).access_time;
  EXPECT_GT(large, small * 1.5);
  EXPECT_GT(m.timing({512, 64}).min_cycle, small);
}

TEST(Sram, TimingShiftsWithTemperatureLikeLogic) {
  const auto hot = model300();
  const sram::SramModel cold(device::golden_nmos(), device::golden_pmos(),
                             10.0);
  const double ratio = cold.timing({512, 64}).access_time /
                       hot.timing({512, 64}).access_time;
  EXPECT_NEAR(ratio, 1.0, 0.2);  // only slightly different, like the cells
}

TEST(Sram, EnergiesPositiveAndOrdered) {
  const auto m = model300();
  const auto p = m.power({512, 64});
  EXPECT_GT(p.read_energy, 0.0);
  EXPECT_GT(p.write_energy, 0.0);
  EXPECT_GT(p.leakage, 0.0);
  // Larger macros cost more per access.
  EXPECT_GT(m.power({4096, 64}).read_energy, p.read_energy);
}

}  // namespace
}  // namespace cryo
