// Dense-core schedule coverage: DenseLu (the elimination schedule the
// engine's dense core replays) against the seed lu_solve oracle, bit for
// bit — return value, LuStats, solution and the destroyed matrix — on
// seeded random MNA-pattern systems, pivot flips between consecutive
// solves, structural zeros, singular and near-singular systems, and the
// input guard (non-finite, extreme, oversized). Engine level: transients
// whose pivot order changes mid-run, and DC solves with numerically zero
// capacitor entries, equal the reference-stamping runs (which call
// lu_solve) bit for bit, and schedule rebuilds inside warm transients
// allocate nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "device/finfet.hpp"
#include "device/modelcard.hpp"
#include "obs/metrics.hpp"
#include "spice/dense.hpp"
#include "spice/engine.hpp"

namespace cryo::spice {
namespace {

using sparse::Coord;

obs::Counter& counter(const char* name) {
  return obs::registry().counter(name);
}

// Runs the scheduled kernel and the seed oracle on copies of one system
// and asserts they agree bit for bit.
void expect_same_as_seed(DenseLu& lu, std::size_t n,
                         const std::vector<double>& a,
                         const std::vector<double>& b) {
  std::vector<double> a_seed = a, b_seed = b, a_sched = a, b_sched = b;
  LuStats s_seed, s_sched;
  const bool ok_seed = lu_solve(a_seed, b_seed, n, &s_seed);
  const bool ok_sched = lu.factor_solve(a_sched, b_sched, &s_sched);
  ASSERT_EQ(ok_sched, ok_seed);
  EXPECT_EQ(std::memcmp(&s_sched.min_pivot_ratio, &s_seed.min_pivot_ratio,
                        sizeof(double)),
            0);
  EXPECT_EQ(s_sched.near_singular, s_seed.near_singular);
  EXPECT_EQ(std::memcmp(b_sched.data(), b_seed.data(), n * sizeof(double)), 0)
      << "solution bits differ";
  EXPECT_EQ(
      std::memcmp(a_sched.data(), a_seed.data(), n * n * sizeof(double)), 0)
      << "factored matrix bits differ";
}

// Sums one addend per coord into a row-major matrix from +0.0, dropping
// ground coords — the way the engine stamps.
std::vector<double> assemble(std::size_t n, const std::vector<Coord>& coords,
                             const std::vector<double>& add) {
  std::vector<double> a(n * n, 0.0);
  for (std::size_t i = 0; i < coords.size(); ++i)
    if (coords[i].row >= 0 && coords[i].col >= 0)
      a[static_cast<std::size_t>(coords[i].row) * n +
        static_cast<std::size_t>(coords[i].col)] += add[i];
  return a;
}

// A random MNA-shaped pattern in the engine's entry order: resistor and
// capacitor 2x2 blocks (some to ground), voltage-source rows with a zero
// diagonal, MOSFET 6-entry stamps, then the gmin diagonal.
struct MnaSystem {
  std::size_t n = 0, nodes = 0;
  std::size_t resistors = 0, capacitors = 0, sources = 0, mosfets = 0;
  std::vector<Coord> coords;

  MnaSystem(std::size_t dim, Rng& rng) : n(dim) {
    sources = 1 + dim / 8;
    nodes = dim - sources;
    const auto node = [&](bool allow_ground) {
      return static_cast<std::int32_t>(rng.uniform_int(
          allow_ground ? -1 : 0, static_cast<std::int64_t>(nodes) - 1));
    };
    const auto pair2 = [&](std::int32_t a, std::int32_t b) {
      coords.insert(coords.end(), {{a, a}, {b, b}, {a, b}, {b, a}});
    };
    resistors = nodes;
    for (std::size_t i = 0; i < resistors; ++i) pair2(node(true), node(true));
    capacitors = nodes / 2 + 1;
    for (std::size_t i = 0; i < capacitors; ++i) pair2(node(true), node(true));
    for (std::size_t k = 0; k < sources; ++k) {
      const auto row = static_cast<std::int32_t>(nodes + k);
      const std::int32_t pos = node(false);
      const std::int32_t neg = rng.bernoulli(0.8) ? -1 : node(true);
      coords.insert(coords.end(),
                    {{row, pos}, {row, neg}, {pos, row}, {neg, row}});
    }
    mosfets = nodes;
    for (std::size_t i = 0; i < mosfets; ++i) {
      const std::int32_t d = node(true), g = node(true), s = node(true);
      coords.insert(coords.end(),
                    {{d, g}, {d, d}, {d, s}, {s, g}, {s, d}, {s, s}});
    }
    for (std::size_t i = 0; i < nodes; ++i) {
      const auto d = static_cast<std::int32_t>(i);
      coords.push_back({d, d});
    }
  }

  // One addend per coord from the value stream `seed`: conductances over
  // decades, capacitor companions zero in a DC-like draw, unit source
  // entries. `jitter` moves every conductance by up to 1e-3 (relative)
  // and keeps the unit entries, so pivots mostly stay.
  std::vector<double> draw(std::uint64_t seed, bool dc, Rng* jitter) const {
    Rng rng(seed);
    std::vector<double> add;
    const auto decade = [&](double lo, double hi) {
      const double v = std::pow(10.0, rng.uniform(lo, hi));
      return jitter ? v * (1.0 + 1e-3 * jitter->uniform(-1.0, 1.0)) : v;
    };
    for (std::size_t i = 0; i < resistors; ++i) {
      const double g = decade(-6, -2);
      add.insert(add.end(), {g, g, -g, -g});
    }
    for (std::size_t i = 0; i < capacitors; ++i) {
      const double g = decade(-5, -1);
      add.insert(add.end(), {dc ? 0.0 : g, dc ? 0.0 : g, dc ? 0.0 : -g,
                             dc ? 0.0 : -g});
    }
    for (std::size_t k = 0; k < sources; ++k)
      add.insert(add.end(), {1.0, -1.0, 1.0, -1.0});
    for (std::size_t i = 0; i < mosfets; ++i) {
      const double gm = decade(-12, -3), gds = decade(-12, -3);
      add.insert(add.end(), {gm, gds, -(gm + gds), -gm, -gds, gm + gds});
    }
    for (std::size_t i = 0; i < nodes; ++i) add.push_back(1e-12);
    return add;
  }

  std::vector<double> rhs(Rng& rng) const {
    std::vector<double> b(n, 0.0);
    for (std::size_t i = 0; i < nodes; ++i)
      if (rng.bernoulli(0.7))
        b[i] = (rng.bernoulli(0.5) ? 1.0 : -1.0) *
               std::pow(10.0, rng.uniform(-9, -3));
    for (std::size_t i = nodes; i < n; ++i)
      b[i] = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 0.7);
    return b;
  }
};

TEST(DenseSchedule, MatchesSeedOnRandomMnaSystems) {
  // Per size: fresh draws (pivots may move anywhere) and small
  // perturbations of one base draw (pivots mostly stay, so the schedule
  // replays), DC-like draws with zero capacitor entries in between.
  std::uint64_t solves = 0, schedules = 0;
  for (std::size_t n = 2; n < 64; ++n) {
    SCOPED_TRACE("n = " + std::to_string(n));
    Rng rng(1000 + n);
    const MnaSystem sys(n, rng);
    DenseLu lu;
    std::uint64_t allocations = 0;
    lu.analyze(n, sys.coords, &allocations);
    for (int k = 0; k < 16; ++k) {
      const std::vector<double> add =
          k % 4 == 3 ? sys.draw(rng.word(), k % 8 == 7, nullptr)
                     : sys.draw(n, false, &rng);
      expect_same_as_seed(lu, n, assemble(n, sys.coords, add), sys.rhs(rng));
      if (HasFatalFailure()) return;
      ++solves;
    }
    schedules += lu.schedules();
  }
  // The replay, not only the record-and-build path, carried most solves.
  EXPECT_LT(schedules * 2, solves);
}

TEST(DenseSchedule, PivotFlipsBetweenConsecutiveSolves) {
  // Full 3x3 pattern. A and B pick the same pivot in column 0 and
  // different ones in column 1, so switching between them resumes the
  // seed loop mid-matrix; C flips column 0 itself.
  const std::size_t n = 3;
  std::vector<Coord> coords;
  for (std::int32_t r = 0; r < 3; ++r)
    for (std::int32_t c = 0; c < 3; ++c) coords.push_back({r, c});
  const std::vector<double> a = {4, 1, 1, 1, 3, 1, 1, 1, 2};
  const std::vector<double> b_mat = {4, 1, 1, 1, 0.5, 1, 1, 3, 2};
  const std::vector<double> c_mat = {1, 1, 1, 4, 3, 1, 1, 1, 2};
  const std::vector<double> rhs = {1.0, -2.0, 0.5};

  DenseLu lu;
  std::uint64_t allocations = 0;
  lu.analyze(n, coords, &allocations);
  const struct {
    const std::vector<double>* a;
    std::uint64_t schedules;  // expected schedules() after the solve
  } steps[] = {{&a, 1}, {&a, 1}, {&b_mat, 2}, {&b_mat, 2},
               {&a, 3}, {&c_mat, 4}, {&c_mat, 4}, {&a, 5}};
  for (const auto& step : steps) {
    expect_same_as_seed(lu, n, *step.a, rhs);
    EXPECT_EQ(lu.schedules(), step.schedules);
  }
}

TEST(DenseSchedule, StructuralZerosSingularAndNearSingular) {
  const std::size_t n = 2;
  std::vector<Coord> coords = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  DenseLu lu;
  std::uint64_t allocations = 0;
  lu.analyze(n, coords, &allocations);
  const std::vector<double> rhs = {1.0, 2.0};
  expect_same_as_seed(lu, n, {1, 2, 3, 4}, rhs);  // records the schedule
  // Rank-deficient with the recorded pivots: the replay rejects it.
  expect_same_as_seed(lu, n, {1, 2, 2, 4}, rhs);
  // Near-singular: solved but flagged.
  expect_same_as_seed(lu, n, {1, 1, 1, 1 + 1e-10}, rhs);
  // Structurally present, numerically zero column: scale 0.
  expect_same_as_seed(lu, n, {0, 2, 0, 4}, rhs);
  // Pivot flip in column 0, then singular in column 1: the resumed seed
  // loop fails, and the next solve records a fresh schedule.
  expect_same_as_seed(lu, n, {1, 2, 3, 6}, rhs);
  const std::uint64_t before = lu.schedules();
  expect_same_as_seed(lu, n, {1, 2, 3, 4}, rhs);
  EXPECT_EQ(lu.schedules(), before + 1);

  // A pattern wider than the values: entries present in the entry list
  // but zero in this system (capacitor companions in a DC solve).
  const std::size_t m = 4;
  std::vector<Coord> wide;
  for (std::int32_t r = 0; r < 4; ++r)
    for (std::int32_t c = 0; c < 4; ++c) wide.push_back({r, c});
  DenseLu wide_lu;
  wide_lu.analyze(m, wide, &allocations);
  const std::vector<double> tridiag = {2, -1, 0, 0, -1, 2, -1, 0,
                                       0, -1, 2, -1, 0, 0, -1, 2};
  for (int k = 0; k < 3; ++k)
    expect_same_as_seed(wide_lu, m, tridiag, {1.0, 0.0, 0.0, 1.0});
  EXPECT_EQ(wide_lu.schedules(), 1u);
}

TEST(DenseSchedule, NonFiniteAndExtremeInputTakeTheSeedLoop) {
  const std::size_t n = 3;
  std::vector<Coord> coords;
  for (std::int32_t r = 0; r < 3; ++r)
    for (std::int32_t c = 0; c < 3; ++c) coords.push_back({r, c});
  const std::vector<double> a = {4, 1, 0, 1, 3, 1, 0, 1, 2};
  const std::vector<double> rhs = {1.0, 0.0, -1.0};
  DenseLu lu;
  std::uint64_t allocations = 0;
  lu.analyze(n, coords, &allocations);
  expect_same_as_seed(lu, n, a, rhs);
  ASSERT_EQ(lu.schedules(), 1u);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto with = [&](std::size_t at, double v) {
    std::vector<double> m = a;
    m[at] = v;
    return m;
  };
  expect_same_as_seed(lu, n, with(0, nan), rhs);   // NaN pivot candidate
  expect_same_as_seed(lu, n, with(5, nan), rhs);   // NaN off the diagonal
  expect_same_as_seed(lu, n, with(3, inf), rhs);   // inf entry
  expect_same_as_seed(lu, n, with(4, 1e300), rhs); // scale above 2^900
  expect_same_as_seed(lu, n, {1e-280, 0, 0, 0, 1, 0, 0, 0, 1},
                      rhs);                        // scale below 2^-900
  expect_same_as_seed(lu, n, a, {nan, 0.0, 1.0});  // non-finite rhs
  expect_same_as_seed(lu, n, a, {1e-300, 0.0, 1.0});
  // None of those touched the schedule, which still replays.
  EXPECT_EQ(lu.schedules(), 1u);
  expect_same_as_seed(lu, n, a, rhs);
  EXPECT_EQ(lu.schedules(), 1u);

  // A -0 in b. Row 0 of U is structurally zero in column 1, and x1 < 0:
  // the seed loop's -0 - 0 * x1 is +0, which a back-substitution over U's
  // pattern would leave at -0.
  DenseLu lower;
  lower.analyze(2, {{0, 0}, {1, 0}, {1, 1}}, &allocations);
  expect_same_as_seed(lower, 2, {2, 0, 1, 1}, {-0.0, -1.0});
  EXPECT_EQ(lower.schedules(), 0u);

  // Over kMaxScheduledDim unknowns: always the seed loop, no schedule.
  const std::size_t big = DenseLu::kMaxScheduledDim + 6;
  Rng rng(7);
  std::vector<Coord> dense;
  std::vector<double> big_a(big * big), big_b(big);
  for (std::size_t r = 0; r < big; ++r) {
    big_b[r] = rng.uniform(-1.0, 1.0);
    for (std::size_t c = 0; c < big; ++c) {
      dense.push_back({static_cast<std::int32_t>(r),
                       static_cast<std::int32_t>(c)});
      big_a[r * big + c] = rng.uniform(-1.0, 1.0) + (r == c ? 4.0 : 0.0);
    }
  }
  DenseLu big_lu;
  big_lu.analyze(big, dense, &allocations);
  expect_same_as_seed(big_lu, big, big_a, big_b);
  EXPECT_EQ(big_lu.schedules(), 0u);
}

TEST(DenseSchedule, OverflowingBackSubstitutionFallsBackToTheDenseLoop) {
  // Inside the input guard, a tiny pivot can still push an entry of x to
  // +-inf; from there a skipped structural zero would read 0 * inf as 0
  // where the seed loop gets NaN, so the rows left take the dense loop.
  // Each system is solved twice: the first records the schedule, the
  // second replays it.
  const double tiny = 0x1p-850, small = 0x1p-820, huge = 0x1p800;
  struct Case {
    const char* what;
    std::vector<Coord> coords;
    std::vector<double> a, b;
  };
  const std::vector<Case> cases = {
      {"last row +inf, a structural zero above it",
       {{0, 0}, {0, 1}, {1, 1}, {1, 2}, {1, 3}, {2, 2}, {3, 3}},
       {1, 1, 0, 0, 0, 1, 1, small, 0, 0, 1, 0, 0, 0, 0, tiny},
       {1, 1, 1, huge}},
      {"last row -inf, then +inf, then inf - inf",
       {{0, 0}, {0, 1}, {1, 1}, {1, 2}, {1, 3}, {2, 2}, {2, 3}, {3, 3}},
       {1, 1, 0, 0, 0, 1, 1, small, 0, 0, 1, 0x1p-830, 0, 0, 0, tiny},
       {1, 1, 1, -huge}},
      {"a middle row overflows, a structural zero above it",
       {{0, 0}, {0, 2}, {1, 1}, {1, 3}, {2, 2}, {2, 3}, {3, 3}},
       {1, 0, 0x1p-830, 0, 0, 1, 0, 1, 0, 0, tiny, 1, 0, 0, 0, 1},
       {1, 1, huge, 1}},
      {"a row swap and fill, then -inf",
       {{0, 0}, {0, 1}, {0, 3}, {1, 0}, {1, 1}, {1, 2}, {2, 2}, {3, 3}},
       {1, 2, 0, 1, 4, 0.5, 0x1p-830, 0, 0, 0, tiny, 0, 0, 0, 0, 1},
       {1, 0.5, -huge, 1}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    DenseLu lu;
    std::uint64_t allocations = 0;
    lu.analyze(4, c.coords, &allocations);
    std::vector<double> a = c.a, b = c.b;
    LuStats stats;
    ASSERT_TRUE(lu_solve(a, b, 4, &stats));
    EXPECT_TRUE(std::any_of(b.begin(), b.end(),
                            [](double v) { return !std::isfinite(v); }));
    for (int k = 0; k < 2; ++k) expect_same_as_seed(lu, 4, c.a, c.b);
    EXPECT_EQ(lu.schedules(), 1u);
  }
}

// Three inverters in a chain: a stage's gm lands in the next stage's
// input column, and as the conductances swing by decades while the chain
// switches, the dense pivots move mid-run.
Circuit inverter_chain(double temperature) {
  device::ModelCard n = device::golden_nmos();
  n.NFIN = 2;
  device::ModelCard p = device::golden_pmos();
  p.NFIN = 3;
  Circuit c;
  c.add_vsource("vdd", "vdd", "0", Waveform::dc(0.7));
  c.add_vsource("va", "a", "0",
                Waveform::pulse(0.0, 0.7, 5e-12, 4e-12, 4e-12, 16e-12,
                                40e-12));
  const char* stages[][2] = {{"a", "x"}, {"x", "y"}, {"y", "out"}};
  for (const auto& [in, out] : stages) {
    c.add_mosfet(std::string("mp_") + out, out, in, "vdd",
                 device::FinFet(p, temperature));
    c.add_mosfet(std::string("mn_") + out, out, in, "0",
                 device::FinFet(n, temperature));
  }
  c.add_capacitor("x", "0", 0.05e-15);
  c.add_capacitor("y", "0", 0.05e-15);
  c.add_capacitor("out", "0", 1e-15);
  return c;
}

class DenseEngine : public ::testing::TestWithParam<double> {};

TEST_P(DenseEngine, TransientWithPivotChangesMatchesReferenceStamping) {
  const Circuit c = inverter_chain(GetParam());
  TranOptions opt;
  opt.t_stop = 200e-12;

  Engine reference(c);
  reference.set_reference_stamping(true);
  const std::uint64_t factors0 = counter("spice.dense_factorizations").value();
  const auto r_ref = reference.transient(opt);
  // Reference stamping calls lu_solve directly, never the schedule.
  EXPECT_EQ(counter("spice.dense_factorizations").value(), factors0);

  Engine scheduled(c);
  const std::uint64_t sched0 = counter("spice.dense_schedules").value();
  const auto r_sched = scheduled.transient(opt);
  // First schedule plus at least one rebuild after a pivot change.
  EXPECT_GE(counter("spice.dense_schedules").value() - sched0, 2u);
  EXPECT_GT(counter("spice.dense_factorizations").value(), factors0);

  for (const char* node : {"a", "x", "y", "out", "vdd"}) {
    const auto t_ref = r_ref.node(node);
    const auto t_sched = r_sched.node(node);
    ASSERT_EQ(t_ref.time.size(), t_sched.time.size()) << node;
    for (std::size_t i = 0; i < t_ref.time.size(); ++i) {
      ASSERT_EQ(t_ref.time[i], t_sched.time[i]) << node << " sample " << i;
      ASSERT_EQ(t_ref.value[i], t_sched.value[i]) << node << " sample " << i;
    }
  }
  ASSERT_EQ(r_ref.final_state(), r_sched.final_state());
}

TEST_P(DenseEngine, DcWithCapacitorsMatchesReferenceStamping) {
  // In DC the capacitor entries are in the pattern but stamp nothing.
  const Circuit c = inverter_chain(GetParam());
  Engine reference(c);
  reference.set_reference_stamping(true);
  Engine scheduled(c);
  for (double t : {0.0, 7e-12, 14e-12, 30e-12})
    ASSERT_EQ(reference.dc_operating_point(t), scheduled.dc_operating_point(t))
        << "t = " << t;
}

INSTANTIATE_TEST_SUITE_P(Temperatures, DenseEngine,
                         ::testing::Values(300.0, 10.0));

TEST(DenseSchedule, RebuildsInsideWarmTransientsAllocateNothing) {
  const Circuit c = inverter_chain(300.0);
  SolveContext ctx;
  Engine engine(c, &ctx);
  TranOptions opt;
  opt.t_stop = 200e-12;
  engine.transient(opt);  // warm-up sizes every buffer, schedule included
  const std::uint64_t warm = ctx.allocations();
  const std::uint64_t sched0 = counter("spice.dense_schedules").value();
  engine.transient(opt);
  engine.transient(opt);
  EXPECT_GT(counter("spice.dense_schedules").value(), sched0);
  EXPECT_EQ(ctx.allocations(), warm);
}

}  // namespace
}  // namespace cryo::spice
