#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "device/modelcard.hpp"
#include "obs/metrics.hpp"
#include "spice/engine.hpp"

namespace cryo::spice {
namespace {

TEST(Waveform, DcAndRamp) {
  const auto dc = Waveform::dc(0.7);
  EXPECT_DOUBLE_EQ(dc.value(0.0), 0.7);
  EXPECT_DOUBLE_EQ(dc.value(1.0), 0.7);
  const auto ramp = Waveform::ramp(0.0, 1.0, 1e-9, 2e-9);
  EXPECT_DOUBLE_EQ(ramp.value(0.5e-9), 0.0);
  EXPECT_DOUBLE_EQ(ramp.value(2e-9), 0.5);
  EXPECT_DOUBLE_EQ(ramp.value(5e-9), 1.0);
}

TEST(Waveform, Breakpoints) {
  const auto ramp = Waveform::ramp(0.0, 1.0, 1e-9, 2e-9);
  EXPECT_NEAR(ramp.next_breakpoint(0.0), 1e-9, 1e-15);
  EXPECT_NEAR(ramp.next_breakpoint(1.5e-9), 3e-9, 1e-15);
  EXPECT_TRUE(std::isinf(ramp.next_breakpoint(10e-9)));
}

TEST(Waveform, PulseRepeats) {
  const auto clk = Waveform::pulse(0.0, 1.0, 1e-9, 0.1e-9, 0.1e-9,
                                   0.9e-9, 2e-9);
  EXPECT_DOUBLE_EQ(clk.value(0.5e-9), 0.0);
  EXPECT_DOUBLE_EQ(clk.value(1.5e-9), 1.0);
  EXPECT_DOUBLE_EQ(clk.value(3.5e-9), 1.0);  // second period
  EXPECT_DOUBLE_EQ(clk.value(2.5e-9), 0.0);
}

TEST(Waveform, PulseRejectsPeriodShorterThanShape) {
  // One period must fit rise + width + fall; a shorter period would fold
  // the shape onto itself and silently distort every cycle after the
  // first.
  EXPECT_THROW(Waveform::pulse(0.0, 1.0, 0.0, 0.3e-9, 0.3e-9, 0.5e-9,
                               1.0e-9),
               std::invalid_argument);
  // The degenerate exact fit is legal: the waveform toggles continuously.
  EXPECT_NO_THROW(Waveform::pulse(0.0, 1.0, 0.0, 0.3e-9, 0.3e-9, 0.5e-9,
                                  1.1e-9));
}

TEST(Waveform, PulseExactPeriodMultiples) {
  // Sampling exactly on period multiples (and on corners shifted by whole
  // periods) must reproduce the first period's values with no drift: the
  // fold-back arithmetic may not accumulate error across cycles.
  const double delay = 1e-9, rise = 0.1e-9, fall = 0.1e-9;
  const double width = 0.9e-9, period = 2e-9;
  const auto clk = Waveform::pulse(0.0, 1.0, delay, rise, fall, width,
                                   period);
  for (int k = 0; k < 5; ++k) {
    const double t0 = k * period;
    EXPECT_DOUBLE_EQ(clk.value(t0 + delay), 0.0) << "k=" << k;
    EXPECT_DOUBLE_EQ(clk.value(t0 + delay + rise), 1.0) << "k=" << k;
    EXPECT_DOUBLE_EQ(clk.value(t0 + delay + rise + width), 1.0)
        << "k=" << k;
    EXPECT_DOUBLE_EQ(clk.value(t0 + delay + rise + width + fall), 0.0)
        << "k=" << k;
    // Mid-ramp, shifted by whole periods: off-corner samples keep the
    // fold-back's ulp(t) error, scaled by the ramp slope.
    EXPECT_NEAR(clk.value(t0 + delay + 0.5 * rise), 0.5, 1e-12)
        << "k=" << k;
  }
}

TEST(Trace, CrossAndTransition) {
  Trace t;
  t.time = {0.0, 1.0, 2.0, 3.0};
  t.value = {0.0, 0.0, 1.0, 1.0};
  EXPECT_NEAR(t.cross(0.5, true), 1.5, 1e-12);
  EXPECT_LT(t.cross(0.5, false), 0.0);
  EXPECT_NEAR(t.transition_time(0.0, 1.0, 0.1, 0.9), 0.8, 1e-9);
  EXPECT_NEAR(t.at(1.5), 0.5, 1e-12);
  EXPECT_NEAR(t.integral(), 1.5, 1e-12);
}

TEST(Trace, CrossHandlesExactThresholdSample) {
  // A fast-slew trace whose first sample sits exactly on the 10 % level:
  // the half-open crossing semantics must report t = 0, not miss it (the
  // old strict predicate returned -1 and transition_time broke).
  Trace t;
  t.time = {0.0, 1.0, 2.0};
  t.value = {0.1, 0.5, 0.9};
  EXPECT_NEAR(t.cross(0.1, true), 0.0, 1e-12);
  EXPECT_NEAR(t.cross(0.9, true), 2.0, 1e-12);
  EXPECT_NEAR(t.transition_time(0.0, 1.0, 0.1, 0.9), 2.0, 1e-12);
  // Falling direction, exact landing on the level.
  Trace f;
  f.time = {0.0, 1.0, 2.0};
  f.value = {0.9, 0.5, 0.1};
  EXPECT_NEAR(f.cross(0.9, false), 0.0, 1e-12);
  EXPECT_NEAR(f.cross(0.1, false), 2.0, 1e-12);
  // A flat trace pinned at the level never "crosses" it.
  Trace flat;
  flat.time = {0.0, 1.0};
  flat.value = {0.5, 0.5};
  EXPECT_LT(flat.cross(0.5, true), 0.0);
  EXPECT_LT(flat.cross(0.5, false), 0.0);
}

TEST(LuSolve, KnownSystem) {
  // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
  std::vector<double> a = {2, 1, 1, 3};
  std::vector<double> b = {5, 10};
  ASSERT_TRUE(lu_solve(a, b, 2));
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(LuSolve, DetectsSingular) {
  std::vector<double> a = {1, 2, 2, 4};
  std::vector<double> b = {1, 2};
  EXPECT_FALSE(lu_solve(a, b, 2));
}

TEST(Circuit, GroundAliases) {
  Circuit c;
  EXPECT_EQ(c.node("0"), kGround);
  EXPECT_EQ(c.node("gnd"), kGround);
  EXPECT_EQ(c.node("vss"), kGround);
  EXPECT_NE(c.node("a"), kGround);
  EXPECT_EQ(c.node("a"), c.node("a"));
}

TEST(Circuit, RejectsBadElements) {
  Circuit c;
  EXPECT_THROW(c.add_resistor("a", "b", 0.0), std::invalid_argument);
  EXPECT_THROW(c.add_capacitor("a", "b", -1e-15), std::invalid_argument);
}

TEST(Dc, ResistorDivider) {
  Circuit c;
  c.add_vsource("v1", "in", "0", Waveform::dc(1.0));
  c.add_resistor("in", "mid", 1000.0);
  c.add_resistor("mid", "0", 3000.0);
  Engine engine(c);
  const auto x = engine.dc_operating_point();
  EXPECT_NEAR(x[c.node("mid") - 1], 0.75, 1e-6);
  // Source branch current: 1 V / 4 kOhm flowing out of the + terminal.
  EXPECT_NEAR(x[c.node_count()], -0.25e-3, 1e-8);
}

TEST(Tran, RcStepResponse) {
  Circuit c;
  c.add_vsource("v1", "in", "0", Waveform::ramp(0.0, 1.0, 0.0, 1e-15));
  c.add_resistor("in", "out", 1000.0);
  c.add_capacitor("out", "0", 1e-12);  // tau = 1 ns
  Engine engine(c);
  TranOptions opt;
  opt.t_stop = 4e-9;
  opt.dt_max = 20e-12;
  const auto result = engine.transient(opt);
  const auto out = result.node("out");
  for (double t : {0.5e-9, 1e-9, 2e-9, 3e-9}) {
    const double expected = 1.0 - std::exp(-t / 1e-9);
    EXPECT_NEAR(out.at(t), expected, 0.01) << "t=" << t;
  }
}

TEST(Tran, CapacitiveDividerConservesCharge) {
  // Series caps: step splits by inverse capacitance ratio.
  Circuit c;
  c.add_vsource("v1", "in", "0",
                Waveform::ramp(0.0, 1.0, 100e-12, 10e-12));
  c.add_capacitor("in", "mid", 2e-15);
  c.add_capacitor("mid", "0", 6e-15);
  Engine engine(c);
  TranOptions opt;
  opt.t_stop = 500e-12;
  const auto result = engine.transient(opt);
  EXPECT_NEAR(result.node("mid").value.back(), 0.25, 0.02);
}

class InverterFixture : public ::testing::Test {
 protected:
  Circuit make(double temperature, double load_f) {
    device::ModelCard n = device::golden_nmos();
    n.NFIN = 2;
    device::ModelCard p = device::golden_pmos();
    p.NFIN = 3;
    Circuit c;
    c.add_vsource("vdd", "vdd", "0", Waveform::dc(0.7));
    c.add_vsource("vin", "in", "0",
                  Waveform::ramp(0.0, 0.7, 50e-12, 10e-12));
    c.add_mosfet("mp", "out", "in", "vdd", device::FinFet(p, temperature));
    c.add_mosfet("mn", "out", "in", "0", device::FinFet(n, temperature));
    c.add_capacitor("out", "0", load_f);
    return c;
  }
};

TEST_F(InverterFixture, OutputRailsCorrect) {
  auto c = make(300.0, 1e-15);
  Engine engine(c);
  const auto x = engine.dc_operating_point();
  EXPECT_GT(x[c.node("out") - 1], 0.68);  // input low -> output high
}

TEST_F(InverterFixture, DelayGrowsWithLoad) {
  double prev_delay = 0.0;
  for (double load : {0.5e-15, 2e-15, 8e-15}) {
    auto c = make(300.0, load);
    Engine engine(c);
    TranOptions opt;
    opt.t_stop = 400e-12;
    opt.dt_max = 2e-12;
    const auto result = engine.transient(opt);
    const double t_in = result.node("in").cross(0.35, true);
    const double t_out = result.node("out").cross(0.35, false, 0.0);
    const double delay = t_out - t_in;
    EXPECT_GT(delay, prev_delay);
    prev_delay = delay;
  }
}

TEST_F(InverterFixture, LeakageCollapsesAtCryo) {
  auto c300 = make(300.0, 1e-15);
  auto c10 = make(10.0, 1e-15);
  Engine e300(c300), e10(c10);
  const double i300 = std::abs(e300.dc_operating_point()[c300.node_count()]);
  const double i10 = std::abs(e10.dc_operating_point()[c10.node_count()]);
  EXPECT_GT(i300 / i10, 30.0);
}

TEST(Dc, SeriesStackConverges) {
  // Three stacked PMOS (the NOR3 pull-up shape that once limit-cycled).
  device::ModelCard p = device::golden_pmos();
  p.NFIN = 9;
  Circuit c;
  c.add_vsource("vdd", "vdd", "0", Waveform::dc(0.7));
  c.add_mosfet("m1", "y", "0", "n1", device::FinFet(p, 300.0));
  c.add_mosfet("m2", "n1", "0", "n2", device::FinFet(p, 300.0));
  c.add_mosfet("m3", "n2", "0", "vdd", device::FinFet(p, 300.0));
  device::ModelCard n = device::golden_nmos();
  n.NFIN = 2;
  c.add_mosfet("m4", "y", "0", "0", device::FinFet(n, 300.0));
  Engine engine(c);
  const auto x = engine.dc_operating_point();
  EXPECT_GT(x[c.node("y") - 1], 0.65);
}

TEST(Tran, BreakpointClippingDoesNotCollapseTimestep) {
  // Regression for the step-control feedback bug: clipping a step to land
  // on a source breakpoint used to write the clipped dt back into the
  // controller, so a stimulus with dense breakpoints collapsed the
  // nominal step and the run crawled back up at 1.5x per accepted step.
  // The aux source here is a held-level pulse: electrically inert, but it
  // emits a pair of corners 10 fs apart every 20 ps — the breakpoint
  // pattern vector-driven decks produce for held pins. Step counts with
  // and without it must now be within noise of each other.
  const auto steps = [](bool dense_breakpoints, bool seed_controller) {
    Circuit c;
    c.add_vsource("vin", "in", "0",
                  Waveform::pulse(0.0, 1.0, 20e-12, 50e-12, 50e-12,
                                  200e-12, 600e-12));
    c.add_resistor("in", "out", 10000.0);
    c.add_capacitor("out", "0", 2e-15);
    if (dense_breakpoints)
      c.add_vsource("aux", "auxn", "0",
                    Waveform::pulse(0.7, 0.7, 1e-12, 10e-15, 10e-15,
                                    10e-12, 20e-12));
    Engine engine(c);
    engine.set_reference_step_control(seed_controller);
    TranOptions opt;
    opt.t_stop = 600e-12;
    return engine.transient(opt).sample_count() - 1;
  };
  const std::size_t base = steps(false, false);
  const std::size_t dense = steps(true, false);
  EXPECT_LE(dense, base * 11 / 10)
      << "dense breakpoints inflated the step count";
  // The frozen seed controller documents the bug being guarded against:
  // the same stimulus used to cost several times the steps.
  const std::size_t seed_dense = steps(true, true);
  EXPECT_GE(seed_dense, base * 2);
}

TEST(Tran, FinalStateMatchesLastSample) {
  // final_state() is assigned once when the transient finishes (not
  // copied per accepted step) and must equal the last appended sample for
  // both node voltages and source branch currents.
  Circuit c;
  c.add_vsource("v1", "in", "0", Waveform::ramp(0.0, 1.0, 0.0, 1e-15));
  c.add_resistor("in", "out", 1000.0);
  c.add_capacitor("out", "0", 1e-12);
  Engine engine(c);
  TranOptions opt;
  opt.t_stop = 1e-9;
  const auto result = engine.transient(opt);
  const auto& fs = result.final_state();
  ASSERT_EQ(fs.size(), c.node_count() + 1);
  EXPECT_EQ(fs[c.node("in") - 1], result.node("in").value.back());
  EXPECT_EQ(fs[c.node("out") - 1], result.node("out").value.back());
  EXPECT_EQ(fs[c.node_count()], result.source_current("v1").value.back());
}

TEST(Dc, GminLadderPolishAgreesWithDirect) {
  // A starved NR budget pushes the stacked-PMOS circuit onto the gmin
  // ladder. The ladder's last rung converges at gmin = 1e-13, not the
  // nominal 1e-12, so without the final warm-started polish its answer
  // differs from the direct solve's by more than roundoff. With it, both
  // paths agree to the NR voltage tolerance.
  device::ModelCard p = device::golden_pmos();
  p.NFIN = 9;
  device::ModelCard n = device::golden_nmos();
  n.NFIN = 2;
  const auto build = [&] {
    Circuit c;
    c.add_vsource("vdd", "vdd", "0", Waveform::dc(0.7));
    c.add_mosfet("m1", "y", "0", "n1", device::FinFet(p, 300.0));
    c.add_mosfet("m2", "n1", "0", "n2", device::FinFet(p, 300.0));
    c.add_mosfet("m3", "n2", "0", "vdd", device::FinFet(p, 300.0));
    c.add_mosfet("m4", "y", "0", "0", device::FinFet(n, 300.0));
    return c;
  };
  Circuit c_direct = build();
  Engine direct(c_direct);
  const auto x_direct = direct.dc_operating_point();
  ASSERT_EQ(direct.last_diagnostics().fallback_path, "direct");

  Circuit c_ladder = build();
  Engine ladder(c_ladder);
  TranOptions starved;
  starved.max_nr_iterations = 4;
  const auto x_ladder = ladder.dc_operating_point(0.0, starved);
  ASSERT_EQ(ladder.last_diagnostics().fallback_path, "direct>gmin");

  ASSERT_EQ(x_direct.size(), x_ladder.size());
  for (std::size_t i = 0; i < x_direct.size(); ++i)
    EXPECT_NEAR(x_ladder[i], x_direct[i], starved.v_abstol) << "x" << i;
}

TEST(Tran, SourceCurrentEnergyMatchesLoad) {
  // Charging a pure load through an inverter: supply energy >= C*V^2/2.
  device::ModelCard nn = device::golden_nmos();
  nn.NFIN = 2;
  device::ModelCard pp = device::golden_pmos();
  pp.NFIN = 3;
  Circuit c;
  c.add_vsource("vdd", "vdd", "0", Waveform::dc(0.7));
  c.add_vsource("vin", "in", "0",
                Waveform::ramp(0.7, 0.0, 50e-12, 10e-12));  // output rises
  c.add_mosfet("mp", "out", "in", "vdd", device::FinFet(pp, 300.0));
  c.add_mosfet("mn", "out", "in", "0", device::FinFet(nn, 300.0));
  const double load = 4e-15;
  c.add_capacitor("out", "0", load);
  Engine engine(c);
  TranOptions opt;
  opt.t_stop = 500e-12;
  const auto result = engine.transient(opt);
  const auto i = result.source_current("vdd");
  double energy = 0.0;
  for (std::size_t k = 1; k < i.time.size(); ++k)
    energy += -0.7 * 0.5 * (i.value[k] + i.value[k - 1]) *
              (i.time[k] - i.time[k - 1]);
  const double load_energy = load * 0.7 * 0.7;  // C*V^2 drawn from supply
  EXPECT_GT(energy, 0.9 * load_energy);
  EXPECT_LT(energy, 2.5 * load_energy);
}

// An inverter pair behind a gate resistor, driven by a warm-up pulse and
// then a measured edge at kEdge whose ramp, like a characterization grid's
// slew, varies between runs.
class CheckpointBench : public ::testing::Test {
 protected:
  static constexpr double kEdge = 100e-12;

  static Waveform drive(double ramp, double warmup = 20e-12) {
    return Waveform::pwl({{0.0, 0.0},
                          {warmup, 0.0},
                          {warmup + 2e-12, 0.7},
                          {60e-12, 0.7},
                          {62e-12, 0.0},
                          {kEdge, 0.0},
                          {kEdge + ramp, 0.7}});
  }

  CheckpointBench() {
    device::ModelCard n = device::golden_nmos();
    n.NFIN = 2;
    device::ModelCard p = device::golden_pmos();
    p.NFIN = 3;
    circuit_.add_vsource("vdd", "vdd", "0", Waveform::dc(0.7));
    in_ = circuit_.add_vsource("vin", "src", "0", drive(4e-12));
    circuit_.add_resistor("src", "in", 200.0);
    circuit_.add_mosfet("mp1", "mid", "in", "vdd", device::FinFet(p, 77.0));
    circuit_.add_mosfet("mn1", "mid", "in", "0", device::FinFet(n, 77.0));
    circuit_.add_mosfet("mp2", "out", "mid", "vdd", device::FinFet(p, 77.0));
    circuit_.add_mosfet("mn2", "out", "mid", "0", device::FinFet(n, 77.0));
    circuit_.add_capacitor("out", "0", 1e-15);
    load_ = circuit_.capacitors().size() - 1;
    options_.t_stop = 220e-12;
    options_.dt_max = 6e-12;
  }

  static std::uint64_t resumes() {
    return obs::registry().counter("spice.transient_resumes").value();
  }

  // The same run bit for bit: every sample of every signal, the final
  // state and the diagnostics.
  static void expect_same_run(const TranResult& a, const SolveDiagnostics& da,
                              const TranResult& b,
                              const SolveDiagnostics& db) {
    ASSERT_EQ(a.sample_count(), b.sample_count());
    const auto same = [](const std::vector<double>& u,
                         const std::vector<double>& v) {
      return u.size() == v.size() &&
             std::memcmp(u.data(), v.data(), u.size() * sizeof(double)) == 0;
    };
    for (const char* node : {"src", "in", "mid", "out", "vdd"}) {
      EXPECT_TRUE(same(a.node(node).time, b.node(node).time)) << node;
      EXPECT_TRUE(same(a.node(node).value, b.node(node).value)) << node;
    }
    for (const char* source : {"vdd", "vin"})
      EXPECT_TRUE(same(a.source_current(source).value,
                       b.source_current(source).value))
          << source;
    EXPECT_TRUE(same(a.final_state(), b.final_state()));
    EXPECT_EQ(da.to_string(), db.to_string());
    EXPECT_EQ(da.failing_node, db.failing_node);
    EXPECT_TRUE(same({da.worst_residual, da.gmin_reached, da.source_scale,
                      da.time},
                     {db.worst_residual, db.gmin_reached, db.source_scale,
                      db.time}));
    EXPECT_EQ(da.iterations, db.iterations);
    EXPECT_EQ(da.near_singular, db.near_singular);
    EXPECT_EQ(da.fallback_path, db.fallback_path);
  }

  // Runs with `checkpoint`, then without, and expects the same bits;
  // returns whether the first run resumed.
  bool run_both(Engine& engine, TranCheckpoint& checkpoint,
                const TranOptions& options) {
    const std::uint64_t before = resumes();
    const TranResult with = engine.transient(options, &checkpoint);
    const SolveDiagnostics with_diag = engine.last_diagnostics();
    const bool resumed = resumes() == before + 1;
    const TranResult plain = engine.transient(options);
    expect_same_run(with, with_diag, plain, engine.last_diagnostics());
    return resumed;
  }

  Circuit circuit_;
  std::size_t in_ = 0, load_ = 0;
  TranOptions options_;
};

TEST_F(CheckpointBench, ResumeAtAnEdgeEqualsTheUninterruptedRun) {
  Engine engine(circuit_);
  TranCheckpoint checkpoint(kEdge);
  EXPECT_FALSE(run_both(engine, checkpoint, options_));
  ASSERT_TRUE(checkpoint.taken());
  // Other ramps after the edge, and a longer run, share the prefix.
  for (const double ramp : {4e-12, 1e-12, 10e-12, 40e-12}) {
    SCOPED_TRACE(ramp);
    circuit_.set_vsource_wave(in_, drive(ramp));
    EXPECT_TRUE(run_both(engine, checkpoint, options_));
  }
  TranOptions longer = options_;
  longer.t_stop = 400e-12;
  EXPECT_TRUE(run_both(engine, checkpoint, longer));
}

TEST_F(CheckpointBench, ResumeAtZeroEqualsTheUninterruptedRun) {
  Engine engine(circuit_);
  TranCheckpoint checkpoint(0.0);
  EXPECT_FALSE(run_both(engine, checkpoint, options_));
  ASSERT_TRUE(checkpoint.taken());
  // The DC state sees neither the stimulus after t = 0 nor the load.
  circuit_.set_vsource_wave(in_, drive(10e-12, 30e-12));
  EXPECT_TRUE(run_both(engine, checkpoint, options_));
  circuit_.set_capacitor_farads(load_, 4e-15);
  EXPECT_TRUE(run_both(engine, checkpoint, options_));
  // A source that differs at t = 0 is refused.
  circuit_.set_vsource_wave(in_, Waveform::ramp(0.7, 0.0, 30e-12, 5e-12));
  EXPECT_FALSE(run_both(engine, checkpoint, options_));
}

TEST_F(CheckpointBench, RefusedResumeRunsFromScratch) {
  Engine engine(circuit_);
  const auto fresh = [&] {
    circuit_.set_vsource_wave(in_, drive(4e-12));
    circuit_.set_capacitor_farads(load_, 1e-15);
    TranCheckpoint checkpoint(kEdge);
    engine.transient(options_, &checkpoint);
    EXPECT_TRUE(checkpoint.taken());
    return checkpoint;
  };
  {
    SCOPED_TRACE("a source differs before the checkpoint");
    TranCheckpoint checkpoint = fresh();
    circuit_.set_vsource_wave(in_, drive(4e-12, 25e-12));
    EXPECT_FALSE(run_both(engine, checkpoint, options_));
    // The refused run recorded its own prefix, which the next resumes.
    EXPECT_TRUE(run_both(engine, checkpoint, options_));
  }
  {
    SCOPED_TRACE("an element value differs");
    TranCheckpoint checkpoint = fresh();
    circuit_.set_capacitor_farads(load_, 2e-15);
    EXPECT_FALSE(run_both(engine, checkpoint, options_));
  }
  {
    SCOPED_TRACE("the options differ");
    TranCheckpoint checkpoint = fresh();
    TranOptions tighter = options_;
    tighter.lte_tol *= 0.5;
    EXPECT_FALSE(run_both(engine, checkpoint, tighter));
    TranOptions budget = options_;
    budget.max_nr_iterations += 1;
    EXPECT_FALSE(run_both(engine, checkpoint, budget));
  }
  {
    SCOPED_TRACE("the run ends at the checkpoint");
    TranCheckpoint checkpoint = fresh();
    TranOptions shorter = options_;
    shorter.t_stop = kEdge;
    EXPECT_FALSE(run_both(engine, checkpoint, shorter));
  }
  {
    SCOPED_TRACE("another engine");
    TranCheckpoint checkpoint = fresh();
    Engine other(circuit_);
    EXPECT_FALSE(run_both(other, checkpoint, options_));
  }
}

TEST(Waveform, AgreesUntil) {
  const Waveform a = Waveform::pwl({{0.0, 0.0}, {1.0, 0.0}, {2.0, 1.0}});
  // Points up to t shared; the segment spanning t ends on it.
  EXPECT_TRUE(a.agrees_until(Waveform::pwl({{0.0, 0.0}, {1.0, 0.0},
                                            {3.0, 1.0}}),
                             1.0));
  // ... or is flat in both.
  EXPECT_TRUE(a.agrees_until(Waveform::pwl({{0.0, 0.0}, {1.5, 0.0}}), 0.5));
  EXPECT_FALSE(a.agrees_until(Waveform::pwl({{0.0, 0.0}, {1.5, 1.0}}), 0.5));
  // A point before t differs, or one waveform ends by t.
  EXPECT_FALSE(a.agrees_until(Waveform::pwl({{0.0, 0.0}, {0.9, 0.0},
                                             {2.0, 1.0}}),
                              1.0));
  EXPECT_FALSE(a.agrees_until(Waveform::pwl({{0.0, 0.0}, {1.0, 0.0}}), 1.0));
  EXPECT_TRUE(a.agrees_until(a, 5.0));
  // Periodic waveforms agree only when identical.
  const Waveform p = Waveform::pulse(0.0, 1.0, 1.0, 0.1, 0.1, 1.0, 4.0);
  EXPECT_TRUE(p.agrees_until(p, 2.0));
  EXPECT_FALSE(p.agrees_until(Waveform::pulse(0.0, 1.0, 1.0, 0.1, 0.1, 1.0,
                                              5.0),
                              0.5));
  EXPECT_TRUE(a.has_point_at(1.0));
  EXPECT_FALSE(a.has_point_at(1.5));
  EXPECT_FALSE(p.has_point_at(1.0));
}

}  // namespace
}  // namespace cryo::spice
