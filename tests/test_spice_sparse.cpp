// Sparse MNA coverage: the SparseLu kernel against the dense LU oracle,
// dense-vs-sparse engine parity at cell and block scale, the kAuto
// crossover, a transistor-level SRAM column cross-checked against the
// sram::SramModel macro timing, and the pooled-SolveContext reuse
// guarantees (alternating topologies, allocation-free warm transients).
//
// Why parity is a tolerance, not bit-identity: the sparse core eliminates
// in the fill-reducing column order with its own row-pivot choices, so its
// floating-point sums associate differently from the dense core's
// natural-order elimination. Both factorizations are exact to O(eps * cond)
// and both NR loops converge to the same tolerances, so solutions agree to
// ~1e-9 of the node scale — but never bit for bit. (Bit-identity *within*
// each core — across threads, pooled contexts, and repeated solves — is
// still asserted, here and in test_spice_golden.cpp.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cells/flatten.hpp"
#include "device/finfet.hpp"
#include "device/modelcard.hpp"
#include "obs/metrics.hpp"
#include "spice/engine.hpp"
#include "spice/sparse.hpp"
#include "sram/sram.hpp"

namespace cryo::spice {
namespace {

using sparse::Coord;
using sparse::FactorStats;
using sparse::FactorStatus;
using sparse::SparseLu;

// ---------------------------------------------------------------------------
// Kernel-level: SparseLu against the dense lu_solve on the same system.
// ---------------------------------------------------------------------------

// Assembles the dense row-major matrix the coord/value pairs describe
// (duplicates accumulate, ground coords drop) and solves with the dense
// oracle.
std::vector<double> dense_solve(std::size_t n, const std::vector<Coord>& coords,
                                const std::vector<double>& add,
                                std::vector<double> b) {
  std::vector<double> a(n * n, 0.0);
  for (std::size_t i = 0; i < coords.size(); ++i) {
    if (coords[i].row < 0 || coords[i].col < 0) continue;
    a[static_cast<std::size_t>(coords[i].row) * n +
      static_cast<std::size_t>(coords[i].col)] += add[i];
  }
  EXPECT_TRUE(lu_solve(a, b, n));
  return b;
}

// An asymmetric 5x5 pattern with duplicate coordinates and ground drops —
// the same shape engine stamping produces.
struct KernelCase {
  std::size_t n = 5;
  std::vector<Coord> coords;
  std::vector<double> add;  // one addend per coord occurrence

  KernelCase() {
    const auto at = [&](int r, int c, double v) {
      coords.push_back({r, c});
      add.push_back(v);
    };
    at(0, 0, 3.0);
    at(0, 0, 1.0);  // duplicate: accumulates into the same slot
    at(0, 2, -1.0);
    at(1, 1, 2.5);
    at(1, 4, 0.5);
    at(2, 0, -1.0);
    at(2, 2, 4.0);
    at(2, 3, -2.0);
    at(3, 2, -2.0);
    at(3, 3, 5.0);
    at(-1, 3, 9.0);  // ground row: dropped
    at(4, -1, 9.0);  // ground col: dropped
    at(4, 1, 0.5);
    at(4, 4, 1.5);
    at(4, 0, 0.25);
  }

  void stamp(SparseLu& lu, double scale) const {
    auto& vals = lu.values();
    std::fill(vals.begin(), vals.end(), 0.0);
    for (std::size_t i = 0; i < coords.size(); ++i) {
      const std::int32_t slot = lu.slot_of()[i];
      if (slot == sparse::kNoSlot) {
        EXPECT_TRUE(coords[i].row < 0 || coords[i].col < 0);
        continue;
      }
      vals[static_cast<std::size_t>(slot)] += add[i] * scale;
    }
  }

  std::vector<double> scaled_add(double scale) const {
    std::vector<double> s = add;
    for (double& v : s) v *= scale;
    return s;
  }
};

TEST(SparseKernel, FactorRefactorSolveMatchDenseOracle) {
  KernelCase k;
  SparseLu lu;
  std::uint64_t allocs = 0;
  lu.analyze(k.n, k.coords, &allocs);
  ASSERT_TRUE(lu.analyzed());
  EXPECT_EQ(lu.dim(), k.n);
  // 12 distinct in-matrix coordinates (one duplicate pair, two drops).
  EXPECT_EQ(lu.pattern_nnz(), 12u);

  const std::vector<double> rhs = {1.0, -2.0, 0.5, 3.0, -1.0};

  // First pass: full factorization.
  k.stamp(lu, 1.0);
  FactorStats stats;
  ASSERT_EQ(lu.factor(&stats, &allocs), FactorStatus::kOk);
  EXPECT_TRUE(lu.factored());
  EXPECT_GE(lu.fill_nnz(), lu.pattern_nnz());
  std::vector<double> x = rhs;
  lu.solve(x);
  const auto x_ref = dense_solve(k.n, k.coords, k.scaled_add(1.0), rhs);
  for (std::size_t i = 0; i < k.n; ++i)
    EXPECT_NEAR(x[i], x_ref[i], 1e-12) << "factor x" << i;

  // Numeric refactorization with new values through the frozen pattern.
  k.stamp(lu, 2.5);
  ASSERT_EQ(lu.refactor(&stats), FactorStatus::kOk);
  x = rhs;
  lu.solve(x);
  const auto x_ref2 = dense_solve(k.n, k.coords, k.scaled_add(2.5), rhs);
  for (std::size_t i = 0; i < k.n; ++i)
    EXPECT_NEAR(x[i], x_ref2[i], 1e-12) << "refactor x" << i;

  // Refactor is deterministic: same values, bit-identical solution.
  k.stamp(lu, 2.5);
  ASSERT_EQ(lu.refactor(&stats), FactorStatus::kOk);
  std::vector<double> x2 = rhs;
  lu.solve(x2);
  EXPECT_EQ(x, x2);
}

TEST(SparseKernel, RefactorRejectsStalePivotsAndFactorRecovers) {
  // First factor with a dominant (0,0); then move the dominance so the
  // frozen pivot collapses relative to its column. refactor() must hand
  // back kRepivot (not a garbage solution), and a fresh factor() must
  // succeed with new pivots.
  const std::size_t n = 2;
  const std::vector<Coord> coords = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  SparseLu lu;
  std::uint64_t allocs = 0;
  lu.analyze(n, coords, &allocs);

  auto stamp = [&](double a00, double a01, double a10, double a11) {
    auto& v = lu.values();
    std::fill(v.begin(), v.end(), 0.0);
    const std::int32_t* slot = lu.slot_of().data();
    v[slot[0]] += a00;
    v[slot[1]] += a01;
    v[slot[2]] += a10;
    v[slot[3]] += a11;
  };

  FactorStats stats;
  stamp(1.0, 0.0, 0.0, 1.0);
  ASSERT_EQ(lu.factor(&stats, &allocs), FactorStatus::kOk);

  // Pivot (0,0) collapses to 1e-12 of its column: stale by the
  // kLuNearSingularRatio test.
  stamp(1e-12, 1.0, 1.0, 1.0);
  EXPECT_EQ(lu.refactor(&stats), FactorStatus::kRepivot);
  ASSERT_EQ(lu.factor(&stats, &allocs), FactorStatus::kOk);
  std::vector<double> x = {1.0, 2.0};
  lu.solve(x);
  const auto x_ref = dense_solve(
      n, coords, {1e-12, 1.0, 1.0, 1.0}, {1.0, 2.0});
  EXPECT_NEAR(x[0], x_ref[0], 1e-9);
  EXPECT_NEAR(x[1], x_ref[1], 1e-9);
}

TEST(SparseKernel, SingularMatrixIsRejected) {
  const std::size_t n = 2;
  const std::vector<Coord> coords = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  SparseLu lu;
  std::uint64_t allocs = 0;
  lu.analyze(n, coords, &allocs);
  auto& v = lu.values();
  const auto& slot = lu.slot_of();
  std::fill(v.begin(), v.end(), 0.0);
  // Rank-1: second pivot collapses below kLuSingularRatio.
  v[slot[0]] = 1.0;
  v[slot[1]] = 2.0;
  v[slot[2]] = 1.0;
  v[slot[3]] = 2.0 + 1e-22;
  FactorStats stats;
  EXPECT_EQ(lu.factor(&stats, &allocs), FactorStatus::kSingular);
  EXPECT_FALSE(lu.factored());
}

TEST(SparseKernel, MinimumDegreeOrderIsAPermutation) {
  // Star graph: center node 0 touches everyone. Min-degree must schedule
  // the center last-ish (ordering the leaves first keeps fill at zero) and
  // in any case return a valid permutation.
  const std::int32_t n = 6;
  std::vector<std::int32_t> col_ptr = {0, 6, 8, 10, 12, 14, 16};
  std::vector<std::int32_t> row_idx = {0, 1, 2, 3, 4, 5,   // col 0: dense
                                       0, 1, 0, 2, 0, 3,   // cols 1..3
                                       0, 4, 0, 5};        // cols 4..5
  const auto q = sparse::minimum_degree_order(n, col_ptr, row_idx);
  ASSERT_EQ(q.size(), static_cast<std::size_t>(n));
  std::vector<bool> seen(n, false);
  for (const std::int32_t c : q) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, n);
    EXPECT_FALSE(seen[c]) << "column " << c << " repeated";
    seen[c] = true;
  }
  // The hub has degree 5, every leaf degree 1: leaves are eliminated
  // first (leaf 1 by the smallest-index tie-break), and the hub only
  // becomes eligible once its degree has collapsed — i.e. among the final
  // two, when only one leaf is left and the tie-break favors its index.
  EXPECT_EQ(q.front(), 1);
  const auto hub_pos =
      std::find(q.begin(), q.end(), 0) - q.begin();
  EXPECT_GE(hub_pos, n - 2);
}

// ---------------------------------------------------------------------------
// Engine-level parity: sparse path vs the dense oracle.
// ---------------------------------------------------------------------------

// The hostile net from the golden suite: 30 V rail divided to a ~0.7 V
// local supply powering a cross-coupled pair plus a floating gate.
Circuit hostile_circuit() {
  device::ModelCard n = device::golden_nmos();
  n.NFIN = 4;
  device::ModelCard p = device::golden_pmos();
  p.NFIN = 6;
  Circuit c;
  c.add_vsource("vhv", "hv", "0", Waveform::dc(30.0));
  c.add_resistor("hv", "vddl", 42000.0);
  c.add_resistor("vddl", "0", 1000.0);
  c.add_mosfet("mp1", "q", "qb", "vddl", device::FinFet(p, 300.0));
  c.add_mosfet("mn1", "q", "qb", "0", device::FinFet(n, 300.0));
  c.add_mosfet("mp2", "qb", "q", "vddl", device::FinFet(p, 300.0));
  c.add_mosfet("mn2", "qb", "q", "0", device::FinFet(n, 300.0));
  c.add_mosfet("mf", "q", "float_g", "0", device::FinFet(n, 300.0));
  return c;
}

// The golden suite's switching cell: MOSFET stamps, cap companions, source
// rows, and breakpoint landings all in play.
Circuit switching_cell_circuit(double temperature) {
  device::ModelCard n = device::golden_nmos();
  n.NFIN = 2;
  device::ModelCard p = device::golden_pmos();
  p.NFIN = 3;
  Circuit c;
  c.add_vsource("vdd", "vdd", "0", Waveform::dc(0.7));
  c.add_vsource("va", "a", "0",
                Waveform::pulse(0.0, 0.7, 5e-12, 4e-12, 4e-12, 16e-12,
                                40e-12));
  c.add_vsource("vb", "b", "0",
                Waveform::pulse(0.0, 0.7, 11e-12, 4e-12, 4e-12, 20e-12,
                                56e-12));
  c.add_mosfet("mpa", "out", "a", "vdd", device::FinFet(p, temperature));
  c.add_mosfet("mpb", "out", "b", "vdd", device::FinFet(p, temperature));
  c.add_mosfet("mna", "out", "a", "mid", device::FinFet(n, temperature));
  c.add_mosfet("mnb", "mid", "b", "0", device::FinFet(n, temperature));
  c.add_resistor("out", "load", 500.0);
  c.add_capacitor("load", "0", 2e-15);
  return c;
}

TEST(SparseParity, HostileDcMatchesDenseOracle) {
  Circuit c = hostile_circuit();

  Engine dense(c);
  dense.set_solver(LinearSolver::kDense);
  ASSERT_EQ(dense.effective_solver(), LinearSolver::kDense);
  TranOptions opt;
  opt.max_nr_iterations = 4;  // walk the full ladder through both cores
  const auto xd = dense.dc_operating_point(0.0, opt);

  Engine sp(c);
  sp.set_solver(LinearSolver::kSparse);
  ASSERT_EQ(sp.effective_solver(), LinearSolver::kSparse);
  const auto xs = sp.dc_operating_point(0.0, opt);
  EXPECT_EQ(sp.last_diagnostics().fallback_path, "direct>gmin>source_step");

  ASSERT_EQ(xd.size(), xs.size());
  for (std::size_t i = 0; i < xd.size(); ++i) {
    // Converged-NR agreement: absolute floor for the ~0 nodes plus a
    // relative term for the 30 V rail.
    EXPECT_NEAR(xs[i], xd[i], 1e-7 + 1e-7 * std::abs(xd[i])) << "x" << i;
  }
}

class SparseParityTran : public ::testing::TestWithParam<double> {};

TEST_P(SparseParityTran, SwitchingCellTracesMatchDenseOracle) {
  // The adaptive step controller sees slightly different NR trajectories
  // through the two cores, so accepted time points need not line up;
  // compare interpolated traces on a fixed probe grid instead. The bound
  // is then set by the step controller's local truncation error between
  // grids (~1e-3 of the swing on the fastest edges), not by the linear
  // cores — which agree to ~1e-9 at matched states (see the DC parity
  // tests above).
  Circuit c = switching_cell_circuit(GetParam());
  TranOptions opt;
  opt.t_stop = 200e-12;

  Engine dense(c);
  dense.set_solver(LinearSolver::kDense);
  const auto rd = dense.transient(opt);

  Engine sp(c);
  sp.set_solver(LinearSolver::kSparse);
  const auto rs = sp.transient(opt);

  for (const char* node : {"a", "b", "mid", "out", "load", "vdd"}) {
    const auto td = rd.node(node);
    const auto ts = rs.node(node);
    for (double t = 0.0; t <= 200e-12; t += 2e-12)
      EXPECT_NEAR(ts.at(t), td.at(t), 2e-3) << node << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Temperatures, SparseParityTran,
                         ::testing::Values(300.0, 10.0));

// ---------------------------------------------------------------------------
// Block scale: kAuto crossover and replicated nets.
// ---------------------------------------------------------------------------

// N copies of the hostile net in one system, adjacent copies' local rails
// weakly coupled — the block-scale shape the sparse-scaling bench runs.
Circuit replicated_hostile(int copies) {
  const Circuit base = hostile_circuit();
  Circuit c;
  for (int i = 0; i < copies; ++i)
    c.append_copy(base, "c" + std::to_string(i) + ".");
  for (int i = 0; i + 1 < copies; ++i)
    c.add_resistor("c" + std::to_string(i) + ".vddl",
                   "c" + std::to_string(i + 1) + ".vddl", 1e6);
  return c;
}

TEST(SparseBlockScale, AutoCrossoverPicksSparseAndMatchesDenseOracle) {
  // 16 hostile copies: dim = 16 * (5 nodes + 1 source row) = 96, past the
  // kAuto threshold — the engine must pick the sparse core on its own.
  Circuit c = replicated_hostile(16);
  Engine automatic(c);
  ASSERT_EQ(automatic.effective_solver(), LinearSolver::kSparse);

  auto& symbolic = obs::registry().counter("spice.symbolic_analyses");
  const auto sym0 = symbolic.value();

  TranOptions opt;
  opt.max_nr_iterations = 4;
  const auto xs = automatic.dc_operating_point(0.0, opt);
  // One topology, one symbolic analysis — however many NR iterations and
  // ladder rungs ran.
  EXPECT_EQ(symbolic.value(), sym0 + 1);
  EXPECT_GT(obs::registry().gauge("spice.fill_nnz").value(), 0.0);

  Engine dense(c);
  dense.set_solver(LinearSolver::kDense);
  ASSERT_EQ(dense.effective_solver(), LinearSolver::kDense);
  const auto xd = dense.dc_operating_point(0.0, opt);

  ASSERT_EQ(xs.size(), xd.size());
  for (std::size_t i = 0; i < xd.size(); ++i)
    EXPECT_NEAR(xs[i], xd[i], 1e-7 + 1e-7 * std::abs(xd[i])) << "x" << i;

  // Every copy's latch must resolve to the same physical state.
  for (int i = 0; i < 16; ++i) {
    const std::string p = "c" + std::to_string(i) + ".";
    Circuit& mc = c;
    const double q = xs[mc.node(p + "q") - 1];
    const double qb = xs[mc.node(p + "qb") - 1];
    EXPECT_LT(std::min(q, qb), 0.05) << p;
    EXPECT_GT(std::max(q, qb), 0.6) << p;
  }
}

// ---------------------------------------------------------------------------
// Transistor-level SRAM column vs the macro timing model.
// ---------------------------------------------------------------------------

TEST(SparseBlockScale, SramColumn16CrossChecksMacroTiming) {
  const double temperature = 300.0;
  const double vdd = 0.7;
  const double swing = 0.12;  // sram.cpp's kBitlineSwing
  cells::NetlistFlattener flattener(device::golden_nmos(),
                                    device::golden_pmos(), temperature);
  cells::SramColumnSpec spec;
  spec.rows = 16;
  spec.cols = 1;
  cells::SramColumn column = cells::make_sram_column(flattener, spec);

  Engine engine(column.circuit);
  engine.set_solver(LinearSolver::kSparse);  // 16x1 sits below kAuto's 64
  TranOptions opt;
  opt.t_stop = 200e-12;
  opt.dt_max = 2e-12;
  const auto result = engine.transient(opt);

  // Read: bl discharges by the sense swing through the accessed cell; blb
  // stays precharged (the cell stores 0).
  const auto wl = result.node(column.wordline);
  const auto bl = result.node(column.bitlines[0]);
  const auto blb = result.node(column.bitlines_bar[0]);
  const double t_wl = wl.cross(0.5 * vdd, true);
  ASSERT_GT(t_wl, 0.0);
  const double level = (1.0 - swing) * vdd;
  const double t_bl = bl.cross(level, false, t_wl);
  ASSERT_GT(t_bl, t_wl);
  EXPECT_GT(blb.at(t_bl), level) << "blb must hold through the read";

  const double t_sim = t_bl - t_wl;

  // Macro model cross-check. timing() folds the bitline term in with
  // decode/wordline/sense, but rows=16 and rows=12 share the decode depth
  // (ceil(log2) = 4) and the wordline/sense terms don't depend on rows, so
  // the difference isolates 4 cells' worth of bitline discharge:
  //   t_bitline(16) = 4 * (t(16) - t(12)).
  sram::SramModel model(device::golden_nmos(), device::golden_pmos(),
                        temperature, vdd);
  const double t16 = model.timing({16, 1}).access_time;
  const double t12 = model.timing({12, 1}).access_time;
  const double t_model = 4.0 * (t16 - t12);
  ASSERT_GT(t_model, 0.0);

  // The macro model rates the cell stack at 0.22 * Id(vdd, vdd/2) and
  // lumps every junction into one per-cell figure; the flat netlist
  // resolves the real series stack and charge sharing. Same cap scaling,
  // same supply, same devices — agreement to a small factor is the claim,
  // not equality.
  EXPECT_GT(t_sim, 0.12 * t_model)
      << "t_sim=" << t_sim << " t_model=" << t_model;
  EXPECT_LT(t_sim, 8.0 * t_model)
      << "t_sim=" << t_sim << " t_model=" << t_model;
}

// ---------------------------------------------------------------------------
// Pooled SolveContext: alternating topologies and allocation-free reuse.
// ---------------------------------------------------------------------------

class PooledContextAlternating
    : public ::testing::TestWithParam<LinearSolver> {};

TEST_P(PooledContextAlternating, MatchesFreshContextBitForBit) {
  // One context threaded through engines of very different dimensions,
  // alternating A -> B -> A -> B: every solve must be bit-identical to the
  // same solve through a fresh private context. This pins the
  // SolveContext::prepare() dimension tracking — a grow-only scratch that
  // kept a bigger circuit's tail (or a stale sparse pattern owner) would
  // show up here as a flipped bit.
  const LinearSolver solver = GetParam();
  const Circuit big = switching_cell_circuit(300.0);
  Circuit small;
  small.add_vsource("v1", "in", "0", Waveform::dc(1.0));
  small.add_resistor("in", "mid", 1000.0);
  small.add_resistor("mid", "0", 3000.0);
  small.add_capacitor("mid", "0", 1e-15);

  const auto fresh = [&](const Circuit& c) {
    Engine e(c);
    e.set_solver(solver);
    return e.dc_operating_point();
  };
  const std::vector<double> ref_big = fresh(big);
  const std::vector<double> ref_small = fresh(small);

  SolveContext ctx;
  Engine eb(big, &ctx);
  eb.set_solver(solver);
  Engine es(small, &ctx);
  es.set_solver(solver);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(eb.dc_operating_point(), ref_big) << "round " << round;
    EXPECT_EQ(es.dc_operating_point(), ref_small) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Solvers, PooledContextAlternating,
    ::testing::Values(LinearSolver::kDense, LinearSolver::kSparse),
    [](const ::testing::TestParamInfo<LinearSolver>& info) {
      return info.param == LinearSolver::kSparse ? "Sparse" : "Dense";
    });

TEST(SparseContext, WarmSparseTransientIsAllocationFree) {
  // Same contract the dense path already honors: after one warm-up run has
  // sized the pattern, the factorization, and every workspace, repeated
  // identical transients must not touch the heap through any context
  // buffer.
  Circuit c = switching_cell_circuit(300.0);
  SolveContext ctx;
  Engine engine(c, &ctx);
  engine.set_solver(LinearSolver::kSparse);
  TranOptions opt;
  opt.t_stop = 200e-12;
  engine.transient(opt);  // warm-up: analyze, factor, size workspaces
  const std::uint64_t warm = ctx.allocations();
  EXPECT_GT(warm, 0u);
  engine.transient(opt);
  engine.transient(opt);
  EXPECT_EQ(ctx.allocations(), warm);
}

TEST(SparseContext, SymbolicAnalysesScaleWithTopologiesNotIterations) {
  // Two engines sharing one context, each re-solved repeatedly: the
  // symbolic analysis runs once per (engine, context ownership change) —
  // O(topologies) — while numeric refactorizations track NR iterations.
  auto& symbolic = obs::registry().counter("spice.symbolic_analyses");
  auto& refactors = obs::registry().counter("spice.numeric_refactors");

  Circuit c = switching_cell_circuit(300.0);
  SolveContext ctx;
  Engine engine(c, &ctx);
  engine.set_solver(LinearSolver::kSparse);

  const auto sym0 = symbolic.value();
  const auto ref0 = refactors.value();
  engine.dc_operating_point();
  const auto sym_first = symbolic.value() - sym0;
  EXPECT_EQ(sym_first, 1u);

  for (int i = 0; i < 5; ++i) engine.dc_operating_point();
  // Same engine, same context: the pattern is owned, no re-analysis.
  EXPECT_EQ(symbolic.value() - sym0, 1u);
  // Every NR iteration past each solve's first factorization refactors.
  EXPECT_GT(refactors.value(), ref0);
}

}  // namespace
}  // namespace cryo::spice
