#include "spice/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "common/math.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cryo::spice {
namespace {

// Engine-level counters (see src/obs/). Increments are batched per solve /
// per transient so the NR inner loop never touches a shared cacheline.
obs::Counter& nr_iterations_counter() {
  static obs::Counter& c = obs::registry().counter("spice.nr_iterations");
  return c;
}
obs::Counter& nr_nonconverged_counter() {
  static obs::Counter& c = obs::registry().counter("spice.nr_nonconverged");
  return c;
}
obs::Counter& gmin_fallback_counter() {
  static obs::Counter& c = obs::registry().counter("spice.gmin_fallbacks");
  return c;
}
obs::Counter& source_step_fallback_counter() {
  static obs::Counter& c =
      obs::registry().counter("spice.source_step_fallbacks");
  return c;
}
obs::Counter& solve_error_counter() {
  static obs::Counter& c = obs::registry().counter("spice.solve_errors");
  return c;
}
obs::Counter& near_singular_counter() {
  static obs::Counter& c =
      obs::registry().counter("spice.near_singular_pivots");
  return c;
}
obs::Counter& transients_counter() {
  static obs::Counter& c = obs::registry().counter("spice.transients");
  return c;
}
obs::Counter& transient_steps_counter() {
  static obs::Counter& c = obs::registry().counter("spice.transient_steps");
  return c;
}
obs::Counter& transient_rejected_counter() {
  static obs::Counter& c =
      obs::registry().counter("spice.transient_rejected_steps");
  return c;
}
obs::Counter& transient_resumes_counter() {
  static obs::Counter& c =
      obs::registry().counter("spice.transient_resumes");
  return c;
}
obs::Counter& transient_retries_counter() {
  static obs::Counter& c =
      obs::registry().counter("spice.transient_retries");
  return c;
}
obs::Counter& transient_be_fallback_counter() {
  static obs::Counter& c =
      obs::registry().counter("spice.transient_be_fallbacks");
  return c;
}
// Stamp accounting: one `stamp_full` per linear-skeleton build (or per NR
// iteration in the reference mode), one `stamp_incremental` per
// MOSFET-only restamp. A healthy warm run shows incremental >> full.
obs::Counter& stamp_full_counter() {
  static obs::Counter& c = obs::registry().counter("spice.stamp_full");
  return c;
}
obs::Counter& stamp_incremental_counter() {
  static obs::Counter& c =
      obs::registry().counter("spice.stamp_incremental");
  return c;
}
// Sparse-core accounting: one `symbolic_analyses` per pattern+ordering
// build (O(topologies) — test_obs asserts it never scales with NR
// iterations), one `numeric_refactors` per frozen-pattern numeric pass.
// The gauge holds nnz(L+U) of the most recent full factorization.
obs::Counter& symbolic_analyses_counter() {
  static obs::Counter& c =
      obs::registry().counter("spice.symbolic_analyses");
  return c;
}
obs::Counter& numeric_refactors_counter() {
  static obs::Counter& c =
      obs::registry().counter("spice.numeric_refactors");
  return c;
}
obs::Gauge& fill_nnz_gauge() {
  static obs::Gauge& g = obs::registry().gauge("spice.fill_nnz");
  return g;
}
// Dense-core accounting: one `dense_factorizations` per factor-and-solve,
// one `dense_schedules` per elimination schedule recorded (the first per
// engine, then one per pivot change; test_obs asserts it never scales
// with NR iterations).
obs::Counter& dense_factorizations_counter() {
  static obs::Counter& c =
      obs::registry().counter("spice.dense_factorizations");
  return c;
}
obs::Counter& dense_schedules_counter() {
  static obs::Counter& c = obs::registry().counter("spice.dense_schedules");
  return c;
}

// Owner tags for SolveContext solver state: each engine gets a process-
// unique id, so a pooled context can tell "same engine, reuse the
// schedule or the frozen symbolic work" from "new engine, re-analyze".
std::uint64_t next_engine_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string short_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3g", v);
  return buf;
}

}  // namespace

std::string SolveDiagnostics::to_string() const {
  std::string s = "path=" + (fallback_path.empty() ? "?" : fallback_path);
  if (!failing_node.empty()) s += " node=" + failing_node;
  s += " residual=" + short_double(worst_residual);
  s += " iters=" + std::to_string(iterations);
  s += " gmin=" + short_double(gmin_reached);
  if (source_scale != 1.0) s += " scale=" + short_double(source_scale);
  if (time > 0.0) s += " t=" + short_double(time);
  if (near_singular) s += " near-singular";
  return s;
}

SolveError::SolveError(const std::string& context,
                       SolveDiagnostics diagnostics)
    : std::runtime_error(context + " [" + diagnostics.to_string() + "]"),
      diag_(std::move(diagnostics)) {}

Trace TranResult::node(const std::string& name) const {
  for (std::size_t i = 0; i < node_names_.size(); ++i)
    if (node_names_[i] == name) return Trace{time_, node_values_[i]};
  if (name == "0" || name == "gnd")
    return Trace{time_, std::vector<double>(time_.size(), 0.0)};
  throw std::out_of_range("TranResult: unknown node " + name);
}

Trace TranResult::source_current(std::size_t index) const {
  return Trace{time_, source_values_.at(index)};
}

Trace TranResult::source_current(const std::string& name) const {
  for (std::size_t i = 0; i < source_names_.size(); ++i)
    if (source_names_[i] == name) return Trace{time_, source_values_[i]};
  throw std::out_of_range("TranResult: unknown source " + name);
}

void TranResult::append(double t, const std::vector<double>& x,
                        std::size_t n_nodes) {
  if (node_values_.empty()) {
    node_values_.resize(node_names_.size());
    source_values_.resize(source_names_.size());
  }
  time_.push_back(t);
  for (std::size_t i = 0; i < node_names_.size(); ++i)
    node_values_[i].push_back(x[i]);
  for (std::size_t i = 0; i < source_names_.size(); ++i)
    source_values_[i].push_back(x[n_nodes + i]);
}

Engine::Engine(const Circuit& circuit, SolveContext* context)
    : circuit_(circuit),
      n_nodes_(circuit.node_count()),
      n_sources_(circuit.vsources().size()),
      dim_(n_nodes_ + n_sources_),
      ctx_(context != nullptr ? context : &owned_ctx_),
      engine_id_(next_engine_id()) {
  // List every matrix entry once, in the order build_linear and
  // stamp_mosfets walk the circuit, so entry k of that walk is entries_[k]
  // and its slot in either core is slot[k].
  entries_.reserve(4 * circuit.resistors().size() +
                   4 * circuit.capacitors().size() + 4 * n_sources_ +
                   6 * circuit.mosfets().size() + n_nodes_);
  const auto m = [](NodeId id) {
    return static_cast<std::int32_t>(id) - 1;  // ground -> -1 (dropped)
  };
  const auto pair2 = [&](std::int32_t a, std::int32_t b) {
    entries_.push_back({a, a});
    entries_.push_back({b, b});
    entries_.push_back({a, b});
    entries_.push_back({b, a});
  };
  for (const Resistor& res : circuit.resistors()) pair2(m(res.a), m(res.b));
  for (const Capacitor& cap : circuit.capacitors()) pair2(m(cap.a), m(cap.b));
  for (std::size_t k = 0; k < n_sources_; ++k) {
    const VoltageSource& src = circuit.vsources()[k];
    const std::int32_t row = static_cast<std::int32_t>(n_nodes_ + k);
    entries_.push_back({row, m(src.pos)});
    entries_.push_back({row, m(src.neg)});
    entries_.push_back({m(src.pos), row});
    entries_.push_back({m(src.neg), row});
  }
  mos_begin_ = entries_.size();
  for (const Mosfet& fet : circuit.mosfets()) {
    const std::int32_t d = m(fet.drain), g = m(fet.gate), s = m(fet.source);
    entries_.push_back({d, g});
    entries_.push_back({d, d});
    entries_.push_back({d, s});
    entries_.push_back({s, g});
    entries_.push_back({s, d});
    entries_.push_back({s, s});
  }
  for (std::size_t i = 0; i < n_nodes_; ++i) {
    const std::int32_t d = static_cast<std::int32_t>(i);
    entries_.push_back({d, d});
  }
  // Offsets are computed in size_t: a block-scale circuit that only ever
  // runs on the sparse core must not overflow its (unused) dense map.
  dense_slot_.reserve(entries_.size());
  for (const sparse::Coord& e : entries_)
    dense_slot_.push_back(e.row < 0 || e.col < 0
                              ? kDropped
                              : static_cast<std::size_t>(e.row) * dim_ +
                                    static_cast<std::size_t>(e.col));
}

void Engine::build_linear(const SolveSetup& setup,
                          const std::vector<CapState>& caps,
                          const std::vector<std::size_t>& slot,
                          std::vector<double>& a,
                          std::vector<double>& z) const {
  std::fill(a.begin(), a.end(), 0.0);
  std::fill(z.begin(), z.end(), 0.0);

  // Stamp helpers: entries are consumed in list order; ground rows and
  // columns are dropped.
  std::size_t k = 0;
  const auto stamp_a = [&](double val) {
    const std::size_t s = slot[k++];
    if (s != kDropped) a[s] += val;
  };
  const auto stamp_z = [&](NodeId id, double val) {
    if (id != kGround) z[static_cast<std::size_t>(id - 1)] += val;
  };

  for (const Resistor& res : circuit_.resistors()) {
    const double g = 1.0 / res.ohms;
    stamp_a(g);
    stamp_a(g);
    stamp_a(-g);
    stamp_a(-g);
  }

  for (std::size_t i = 0; i < circuit_.capacitors().size(); ++i) {
    const Capacitor& cap = circuit_.capacitors()[i];
    if (!setup.transient || cap.farads <= 0.0) {
      k += 4;  // the entries exist even when the stamp is skipped
      continue;
    }
    // Backward-Euler companion: i = geq*(v - v_old). No history-current
    // term, so a step after a violent transition starts NR closer to its
    // solution than the ringing-prone trapezoidal companion
    // i = geq*(v - v_old) - i_old.
    const double geq = setup.backward_euler ? cap.farads / setup.h
                                            : 2.0 * cap.farads / setup.h;
    const double ieq = setup.backward_euler
                           ? -geq * caps[i].voltage
                           : -geq * caps[i].voltage - caps[i].current;
    stamp_a(geq);
    stamp_a(geq);
    stamp_a(-geq);
    stamp_a(-geq);
    stamp_z(cap.a, -ieq);
    stamp_z(cap.b, ieq);
  }

  // Source rows come after the MOSFET stamps in the historical build, but
  // their rows/columns (>= n_nodes_) never alias a MOSFET entry (all
  // < n_nodes_), so hoisting them into the skeleton leaves every entry's
  // accumulation sequence — and therefore every bit of the solution —
  // unchanged.
  for (std::size_t s = 0; s < n_sources_; ++s) {
    const VoltageSource& src = circuit_.vsources()[s];
    stamp_a(1.0);
    stamp_a(-1.0);
    // source_scale is the continuation multiplier (1.0 outside the
    // source-stepping fallback).
    z[n_nodes_ + s] += setup.source_scale * src.wave.value(setup.t);
    // Branch current column (current flows pos -> through source -> neg).
    stamp_a(1.0);
    stamp_a(-1.0);
  }
}

void Engine::stamp_mosfets(const std::vector<double>& x_prev,
                           const std::vector<std::size_t>& slot,
                           std::vector<double>& a,
                           std::vector<double>& z) const {
  std::size_t k = mos_begin_;
  const auto stamp_a = [&](double val) {
    const std::size_t s = slot[k++];
    if (s != kDropped) a[s] += val;
  };
  const auto v = [&](NodeId id) {
    return id == kGround ? 0.0 : x_prev[static_cast<std::size_t>(id - 1)];
  };
  for (const Mosfet& m : circuit_.mosfets()) {
    const double vgs = v(m.gate) - v(m.source);
    const double vds = v(m.drain) - v(m.source);
    const auto c = m.fet.conductances(vgs, vds);
    // Norton linearization: Id = ids + gm*dvgs + gds*dvds. Entry order
    // matches the reference build exactly (bit-identical accumulation).
    const double ieq = c.ids - c.gm * vgs - c.gds * vds;
    stamp_a(c.gm);
    stamp_a(c.gds);
    stamp_a(-(c.gm + c.gds));
    stamp_a(-c.gm);
    stamp_a(-c.gds);
    stamp_a(c.gm + c.gds);
    if (m.drain != kGround) z[static_cast<std::size_t>(m.drain - 1)] += -ieq;
    if (m.source != kGround) z[static_cast<std::size_t>(m.source - 1)] += ieq;
  }
}

void Engine::ensure_dense() const {
  SolveContext& ctx = *ctx_;
  if (ctx.dense_owner_ == engine_id_) return;
  ctx.dense_lu_.analyze(dim_, entries_, &ctx.allocations_);
  ctx.dense_owner_ = engine_id_;
}

void Engine::ensure_sparse() const {
  SolveContext& ctx = *ctx_;
  if (ctx.sparse_owner_ == engine_id_ && ctx.sparse_lu_.analyzed()) return;
  ctx.sparse_lu_.analyze(dim_, entries_, &ctx.allocations_);
  static_assert(static_cast<std::size_t>(sparse::kNoSlot) == kDropped);
  const std::vector<std::int32_t>& slot_of = ctx.sparse_lu_.slot_of();
  ctx.grow(ctx.sparse_slot_, slot_of.size());
  std::transform(slot_of.begin(), slot_of.end(), ctx.sparse_slot_.begin(),
                 [](std::int32_t s) { return static_cast<std::size_t>(s); });
  ctx.sparse_owner_ = engine_id_;
  symbolic_analyses_counter().add(1);
}

void Engine::build_reference(const std::vector<double>& x_prev,
                             const SolveSetup& setup,
                             const std::vector<CapState>& caps,
                             std::vector<double>& a,
                             std::vector<double>& z) const {
  const std::size_t n = dim_;
  std::fill(a.begin(), a.end(), 0.0);
  std::fill(z.begin(), z.end(), 0.0);

  // Node voltage accessor: kGround (id 0) is 0 V; node id k maps to x[k-1].
  auto v = [&](NodeId id) -> double {
    return id == kGround ? 0.0 : x_prev[static_cast<std::size_t>(id - 1)];
  };
  // Stamp helpers; rows/cols < 0 mean ground and are dropped.
  auto stamp_a = [&](int row, int col, double val) {
    if (row >= 0 && col >= 0) a[static_cast<std::size_t>(row) * n +
                                static_cast<std::size_t>(col)] += val;
  };
  auto stamp_z = [&](int row, double val) {
    if (row >= 0) z[static_cast<std::size_t>(row)] += val;
  };
  auto r = [](NodeId id) { return static_cast<int>(id) - 1; };

  for (const Resistor& res : circuit_.resistors()) {
    const double g = 1.0 / res.ohms;
    stamp_a(r(res.a), r(res.a), g);
    stamp_a(r(res.b), r(res.b), g);
    stamp_a(r(res.a), r(res.b), -g);
    stamp_a(r(res.b), r(res.a), -g);
  }

  if (setup.transient) {
    for (std::size_t i = 0; i < circuit_.capacitors().size(); ++i) {
      const Capacitor& cap = circuit_.capacitors()[i];
      if (cap.farads <= 0.0) continue;
      if (setup.backward_euler) {
        const double geq = cap.farads / setup.h;
        const double ieq = -geq * caps[i].voltage;
        stamp_a(r(cap.a), r(cap.a), geq);
        stamp_a(r(cap.b), r(cap.b), geq);
        stamp_a(r(cap.a), r(cap.b), -geq);
        stamp_a(r(cap.b), r(cap.a), -geq);
        stamp_z(r(cap.a), -ieq);
        stamp_z(r(cap.b), ieq);
      } else {
        const double geq = 2.0 * cap.farads / setup.h;
        const double ieq = -geq * caps[i].voltage - caps[i].current;
        stamp_a(r(cap.a), r(cap.a), geq);
        stamp_a(r(cap.b), r(cap.b), geq);
        stamp_a(r(cap.a), r(cap.b), -geq);
        stamp_a(r(cap.b), r(cap.a), -geq);
        stamp_z(r(cap.a), -ieq);
        stamp_z(r(cap.b), ieq);
      }
    }
  }

  for (const Mosfet& m : circuit_.mosfets()) {
    const double vgs = v(m.gate) - v(m.source);
    const double vds = v(m.drain) - v(m.source);
    const auto c = m.fet.conductances(vgs, vds);
    const double ieq = c.ids - c.gm * vgs - c.gds * vds;
    stamp_a(r(m.drain), r(m.gate), c.gm);
    stamp_a(r(m.drain), r(m.drain), c.gds);
    stamp_a(r(m.drain), r(m.source), -(c.gm + c.gds));
    stamp_a(r(m.source), r(m.gate), -c.gm);
    stamp_a(r(m.source), r(m.drain), -c.gds);
    stamp_a(r(m.source), r(m.source), c.gm + c.gds);
    stamp_z(r(m.drain), -ieq);
    stamp_z(r(m.source), ieq);
  }

  for (std::size_t k = 0; k < circuit_.vsources().size(); ++k) {
    const VoltageSource& src = circuit_.vsources()[k];
    const int row = static_cast<int>(n_nodes_ + k);
    stamp_a(row, r(src.pos), 1.0);
    stamp_a(row, r(src.neg), -1.0);
    stamp_z(row, setup.source_scale * src.wave.value(setup.t));
    stamp_a(r(src.pos), row, 1.0);
    stamp_a(r(src.neg), row, -1.0);
  }

  // gmin from every node to ground stabilizes floating regions.
  for (std::size_t i = 0; i < n_nodes_; ++i) a[i * n + i] += setup.gmin;
}

Engine::NrOutcome Engine::solve_nonlinear(std::vector<double>& x,
                                          const SolveSetup& setup,
                                          const std::vector<CapState>& caps,
                                          const TranOptions& options) const {
  if (reference_stamping_)
    return solve_nonlinear_reference(x, setup, caps, options);
  const bool dense = effective_solver() == LinearSolver::kDense;
  const std::size_t n = dim_;
  SolveContext& ctx = *ctx_;
  ctx.prepare(n, n_nodes_, dense);
  if (dense)
    ensure_dense();
  else
    ensure_sparse();
  DenseLu& dense_lu = ctx.dense_lu_;
  sparse::SparseLu& lu = ctx.sparse_lu_;
  // Both cores keep A as one flat value array addressed through their
  // entry map: row-major dense offsets, or CSC value slots.
  const std::vector<std::size_t>& slot = dense ? dense_slot_ : ctx.sparse_slot_;
  std::vector<double>& a_lin = dense ? ctx.a_lin_ : lu.skeleton();
  std::vector<double>& a = dense ? ctx.a_ : lu.values();
  std::vector<double>& rhs = ctx.z_;  // skeleton copy, then LU solution
  std::vector<double>& prev_dv = ctx.prev_dv_;
  std::fill(prev_dv.begin(), prev_dv.end(), 0.0);

  // The linear skeleton is invariant across this solve's NR iterations:
  // stamp it once, memcpy it back each iteration, restamp only MOSFETs.
  build_linear(setup, caps, slot, a_lin, ctx.z_lin_);
  const std::size_t gmin_begin = entries_.size() - n_nodes_;

  NrOutcome out;
  std::uint64_t refactors = 0, dense_factors = 0;
  const std::uint64_t schedules0 = dense_lu.schedules();
  const auto finish = [&](int iters, bool converged) {
    nr_iterations_counter().add(static_cast<std::uint64_t>(iters));
    stamp_full_counter().add(1);
    stamp_incremental_counter().add(static_cast<std::uint64_t>(iters));
    if (refactors > 0) numeric_refactors_counter().add(refactors);
    if (dense_factors > 0) dense_factorizations_counter().add(dense_factors);
    if (dense_lu.schedules() > schedules0)
      dense_schedules_counter().add(dense_lu.schedules() - schedules0);
    if (!converged) nr_nonconverged_counter().add(1);
    if (out.near_singular) near_singular_counter().add(1);
    out.iterations = iters;
    out.converged = converged;
    return out;
  };
  // The factor-and-solve seam, the one step that differs between the
  // cores. The dense core replays its elimination schedule (re-recorded
  // when a pivot changes). The sparse core freezes its pattern and pivot
  // order on the first factor and runs the numeric-only refactorization
  // after that, re-running the full factor when the frozen pivots go
  // stale. On success rhs holds the solution.
  const auto factor_solve = [&]() {
    if (dense) {
      ++dense_factors;
      LuStats stats;
      if (!dense_lu.factor_solve(a, rhs, &stats)) return false;
      out.near_singular |= stats.near_singular;
      return true;
    }
    sparse::FactorStats stats;
    sparse::FactorStatus status = sparse::FactorStatus::kRepivot;
    if (lu.factored()) {
      ++refactors;
      status = lu.refactor(&stats);
    }
    if (status == sparse::FactorStatus::kRepivot) {
      status = lu.factor(&stats, &ctx.allocations_);
      if (status == sparse::FactorStatus::kOk)
        fill_nnz_gauge().set(static_cast<double>(lu.fill_nnz()));
    }
    if (status != sparse::FactorStatus::kOk) return false;
    out.near_singular |= stats.near_singular;
    lu.solve(rhs);
    return true;
  };
  for (int iter = 0; iter < options.max_nr_iterations; ++iter) {
    std::copy(a_lin.begin(), a_lin.end(), a.begin());
    std::copy(ctx.z_lin_.begin(), ctx.z_lin_.end(), rhs.begin());
    stamp_mosfets(x, slot, a, rhs);
    // gmin from every node to ground stabilizes floating regions. Applied
    // after the MOSFET stamps, exactly where the reference build adds it.
    for (std::size_t i = 0; i < n_nodes_; ++i)
      a[slot[gmin_begin + i]] += setup.gmin;
    if (!factor_solve()) {
      out.singular = true;
      return finish(iter + 1, false);
    }
    // Voltage limiting: cap per-iteration node-voltage moves to keep the
    // linearization honest. The cap decays after a grace period and any
    // node whose update flips sign is damped, which breaks the limit
    // cycles that a fixed symmetric clamp can sustain.
    const double limit =
        iter < 12 ? 0.4 : std::max(0.4 * std::pow(0.7, iter - 12), 1e-4);
    double max_dv = 0.0, max_di = 0.0;
    for (std::size_t i = 0; i < n_nodes_; ++i) {
      double dv = clamp(rhs[i] - x[i], -limit, limit);
      if (dv * prev_dv[i] < 0.0) dv *= 0.5;
      prev_dv[i] = dv;
      if (std::abs(dv) > max_dv) {
        max_dv = std::abs(dv);
        out.worst_node = i;
      }
      x[i] += dv;
    }
    for (std::size_t i = n_nodes_; i < n; ++i) {
      const double di = rhs[i] - x[i];
      max_di = std::max(max_di, std::abs(di));
      x[i] = rhs[i];
    }
    out.worst_dv = max_dv;
    if (max_dv < options.v_abstol && max_di < options.i_abstol)
      return finish(iter + 1, true);
  }
  return finish(options.max_nr_iterations, false);
}

Engine::NrOutcome Engine::solve_nonlinear_reference(
    std::vector<double>& x, const SolveSetup& setup,
    const std::vector<CapState>& caps, const TranOptions& options) const {
  // Frozen pre-SolveContext implementation: full rebuild and per-solve
  // allocations on every iteration. Kept as the bit-identity oracle and
  // the recorded perf baseline; do not "optimize" it.
  const std::size_t n = dim_;
  std::vector<double> a(n * n), z(n);
  std::vector<double> prev_dv(n_nodes_, 0.0);
  NrOutcome out;
  const auto finish = [&](int iters, bool converged) {
    nr_iterations_counter().add(static_cast<std::uint64_t>(iters));
    stamp_full_counter().add(static_cast<std::uint64_t>(iters));
    if (!converged) nr_nonconverged_counter().add(1);
    if (out.near_singular) near_singular_counter().add(1);
    out.iterations = iters;
    out.converged = converged;
    return out;
  };
  for (int iter = 0; iter < options.max_nr_iterations; ++iter) {
    build_reference(x, setup, caps, a, z);
    std::vector<double> rhs = z;
    LuStats lu;
    if (!lu_solve(a, rhs, n, &lu)) {
      out.singular = true;
      return finish(iter + 1, false);
    }
    out.near_singular |= lu.near_singular;
    const double limit =
        iter < 12 ? 0.4 : std::max(0.4 * std::pow(0.7, iter - 12), 1e-4);
    double max_dv = 0.0, max_di = 0.0;
    for (std::size_t i = 0; i < n_nodes_; ++i) {
      double dv = clamp(rhs[i] - x[i], -limit, limit);
      if (dv * prev_dv[i] < 0.0) dv *= 0.5;
      prev_dv[i] = dv;
      if (std::abs(dv) > max_dv) {
        max_dv = std::abs(dv);
        out.worst_node = i;
      }
      x[i] += dv;
    }
    for (std::size_t i = n_nodes_; i < n; ++i) {
      const double di = rhs[i] - x[i];
      max_di = std::max(max_di, std::abs(di));
      x[i] = rhs[i];
    }
    out.worst_dv = max_dv;
    if (max_dv < options.v_abstol && max_di < options.i_abstol)
      return finish(iter + 1, true);
  }
  return finish(options.max_nr_iterations, false);
}

SolveDiagnostics Engine::diagnose(const NrOutcome& out,
                                  const SolveSetup& setup,
                                  const std::string& fallback_path) const {
  SolveDiagnostics d;
  if (n_nodes_ > 0 && out.worst_node < n_nodes_)
    d.failing_node =
        circuit_.node_name(static_cast<NodeId>(out.worst_node + 1));
  d.worst_residual = out.worst_dv;
  d.iterations = out.iterations;
  d.gmin_reached = setup.gmin;
  d.source_scale = setup.source_scale;
  d.time = setup.transient ? setup.t : 0.0;
  d.near_singular = out.near_singular || out.singular;
  d.fallback_path = fallback_path;
  return d;
}

std::vector<double> Engine::dc_operating_point(double t) {
  return dc_operating_point(t, TranOptions{});
}

std::vector<double> Engine::dc_operating_point(double t,
                                               const TranOptions& options) {
  std::vector<double> x(dim_, 0.0);
  std::vector<CapState> caps;  // unused in DC
  SolveSetup setup;
  setup.t = t;

  // Direct attempt with tiny gmin.
  std::vector<double> x_try = x;
  NrOutcome out = solve_nonlinear(x_try, setup, caps, options);
  if (out.converged) {
    last_diag_ = diagnose(out, setup, "direct");
    return x_try;
  }

  // gmin stepping: solve with heavy damping conductance, then relax it.
  // Failures early in the ladder are tolerated — the next (smaller) gmin
  // still warm-starts from whatever the failed solve left behind.
  gmin_fallback_counter().add(1);
  x.assign(dim_, 0.0);
  bool gmin_ok = true;
  for (double gmin = 1e-2; gmin >= 1e-13; gmin *= 0.1) {
    setup.gmin = gmin;
    out = solve_nonlinear(x, setup, caps, options);
    if (!out.converged && gmin < 1e-11) {
      gmin_ok = false;
      break;
    }
  }
  if (gmin_ok) {
    // Final polish at the nominal gmin: the ladder's last rung converges
    // at gmin = 1e-13, not the 1e-12 the direct path solves with, so
    // without this the operating point depends on which path succeeded.
    // Warm-started from the ladder result this is a one-to-two-iteration
    // solve; if it somehow diverges, keep the ladder answer as before.
    SolveSetup polish;
    polish.t = t;
    std::vector<double> x_polish = x;
    const NrOutcome polished =
        solve_nonlinear(x_polish, polish, caps, options);
    if (polished.converged) {
      last_diag_ = diagnose(polished, polish, "direct>gmin");
      return x_polish;
    }
    last_diag_ = diagnose(out, setup, "direct>gmin");
    return x;
  }

  // Source-stepping continuation: ramp every source from 0 to its full
  // value, warm-starting each solve from the previous scale. Near zero
  // scale the circuit is essentially linear, and each increment moves the
  // operating point a little, so NR stays inside its convergence basin.
  // A failed increment is bisected down to 1/1024 of full scale.
  source_step_fallback_counter().add(1);
  setup.gmin = 1e-12;
  x.assign(dim_, 0.0);
  double scale = 0.0;
  double step = 1.0 / 32.0;
  std::vector<double> x_good = x;
  while (scale < 1.0) {
    setup.source_scale = std::min(scale + step, 1.0);
    std::vector<double> x_next = x_good;
    out = solve_nonlinear(x_next, setup, caps, options);
    if (out.converged) {
      scale = setup.source_scale;
      x_good = std::move(x_next);
      // Grow cautiously after a success so the ramp stays cheap.
      step = std::min(step * 2.0, 1.0 / 16.0);
      continue;
    }
    step *= 0.5;
    if (step < 1.0 / 1024.0) {
      solve_error_counter().add(1);
      last_diag_ = diagnose(out, setup, "direct>gmin>source_step");
      throw SolveError("dc_operating_point: source stepping failed",
                       last_diag_);
    }
  }
  last_diag_ = diagnose(out, setup, "direct>gmin>source_step");
  return x_good;
}

std::vector<double> Engine::dc_operating_point_from(std::vector<double> x0,
                                                    double t) {
  TranOptions options;
  std::vector<CapState> caps;  // unused in DC
  SolveSetup setup;
  setup.t = t;
  if (x0.size() == dim_) {
    const NrOutcome out = solve_nonlinear(x0, setup, caps, options);
    if (out.converged) {
      last_diag_ = diagnose(out, setup, "warm");
      return x0;
    }
  }
  return dc_operating_point(t);
}

TranResult Engine::transient_reference(const TranOptions& options) {
  // Seed implementation, frozen as the recorded perf baseline. The known
  // defects are kept on purpose: breakpoint clipping writes dt_eff back
  // into the controller (step collapse on PWL-heavy stimuli), x_pred /
  // x_new are allocated per step, and the final state is copied on every
  // accepted step (the historical TranResult::append behavior).
  OBS_SPAN("spice.transient");
  std::vector<std::string> node_names(n_nodes_);
  for (std::size_t i = 0; i < n_nodes_; ++i)
    node_names[i] = circuit_.node_name(static_cast<NodeId>(i + 1));
  std::vector<std::string> source_names(n_sources_);
  for (std::size_t i = 0; i < n_sources_; ++i)
    source_names[i] = circuit_.vsources()[i].name;
  TranResult result(std::move(node_names), std::move(source_names));

  std::vector<double> x = dc_operating_point(0.0, options);

  const auto& cap_elems = circuit_.capacitors();
  std::vector<CapState> caps(cap_elems.size());
  auto vnode = [&](const std::vector<double>& xs, NodeId id) {
    return id == kGround ? 0.0 : xs[static_cast<std::size_t>(id - 1)];
  };
  for (std::size_t i = 0; i < cap_elems.size(); ++i) {
    caps[i].voltage = vnode(x, cap_elems[i].a) - vnode(x, cap_elems[i].b);
    caps[i].current = 0.0;
  }

  result.append(0.0, x, n_nodes_);
  result.set_final_state(x);

  double t = 0.0;
  double dt = options.dt_max / 16.0;
  std::vector<double> x_prev2 = x;
  double dt_prev = dt;
  bool have_prev = false;

  transients_counter().add(1);
  std::uint64_t accepted = 0, rejected = 0, retries = 0, be_fallbacks = 0;
  const auto flush_steps = [&] {
    transient_steps_counter().add(accepted);
    if (rejected > 0) transient_rejected_counter().add(rejected);
    if (retries > 0) transient_retries_counter().add(retries);
    if (be_fallbacks > 0) transient_be_fallback_counter().add(be_fallbacks);
  };

  while (t < options.t_stop - 1e-18) {
    double dt_eff = std::min(dt, options.t_stop - t);
    for (const VoltageSource& src : circuit_.vsources()) {
      const double bp = src.wave.next_breakpoint(t);
      if (bp > t && bp - t < dt_eff) dt_eff = bp - t;
    }

    std::vector<double> x_pred = x;
    if (have_prev) {
      for (std::size_t i = 0; i < dim_; ++i)
        x_pred[i] = x[i] + (x[i] - x_prev2[i]) * (dt_eff / dt_prev);
    }

    SolveSetup setup;
    setup.transient = true;
    setup.t = t + dt_eff;
    setup.h = dt_eff;
    std::vector<double> x_new;
    NrOutcome out;
    bool ok = false;
    bool used_be = false;
    for (int attempt = 0; attempt < 3 && !ok; ++attempt) {
      if (attempt > 0) ++retries;
      TranOptions ladder = options;
      if (attempt >= 1) ladder.max_nr_iterations *= 2;
      setup.backward_euler = attempt == 2;
      if (attempt == 2) ++be_fallbacks;
      x_new = x_pred;
      out = solve_nonlinear(x_new, setup, caps, ladder);
      ok = out.converged;
    }
    used_be = ok && setup.backward_euler;
    if (!ok) {
      ++rejected;
      dt = dt_eff / 4.0;  // the clipped step shrinks the controller state
      if (dt < options.dt_min) {
        flush_steps();
        solve_error_counter().add(1);
        last_diag_ =
            diagnose(out, setup, "transient:retry>be>dt_underflow");
        throw SolveError("transient: timestep underflow", last_diag_);
      }
      continue;
    }
    last_diag_ = diagnose(out, setup,
                          used_be ? "transient:retry>be" : "transient");

    if (have_prev) {
      double err = 0.0;
      for (std::size_t i = 0; i < n_nodes_; ++i) {
        const double slope = (x[i] - x_prev2[i]) / dt_prev;
        const double pred = x[i] + slope * dt_eff;
        err = std::max(err, std::abs(x_new[i] - pred));
      }
      if (!used_be && err > options.lte_tol * 50.0 &&
          dt_eff > options.dt_min * 16.0) {
        ++rejected;
        dt = dt_eff / 2.0;
        continue;
      }
      if (used_be) {
        dt = dt_eff;
      } else if (err < options.lte_tol * 5.0) {
        dt = std::min(dt_eff * 1.5, options.dt_max);
      } else {
        dt = dt_eff;  // acceptance keeps the clipped step as well
      }
    }

    for (std::size_t i = 0; i < cap_elems.size(); ++i) {
      if (cap_elems[i].farads <= 0.0) continue;
      const double v_new =
          vnode(x_new, cap_elems[i].a) - vnode(x_new, cap_elems[i].b);
      if (used_be) {
        const double geq = cap_elems[i].farads / dt_eff;
        caps[i].current = geq * (v_new - caps[i].voltage);
      } else {
        const double geq = 2.0 * cap_elems[i].farads / dt_eff;
        caps[i].current = geq * (v_new - caps[i].voltage) - caps[i].current;
      }
      caps[i].voltage = v_new;
    }
    x_prev2 = x;
    dt_prev = dt_eff;
    have_prev = true;
    x = x_new;
    t += dt_eff;
    ++accepted;
    result.append(t, x, n_nodes_);
    result.set_final_state(x);
  }
  flush_steps();
  return result;
}

TranResult Engine::empty_result() const {
  std::vector<std::string> node_names(n_nodes_);
  for (std::size_t i = 0; i < n_nodes_; ++i)
    node_names[i] = circuit_.node_name(static_cast<NodeId>(i + 1));
  std::vector<std::string> source_names(n_sources_);
  for (std::size_t i = 0; i < n_sources_; ++i)
    source_names[i] = circuit_.vsources()[i].name;
  return TranResult(std::move(node_names), std::move(source_names));
}

bool Engine::resumable(const TranCheckpoint& checkpoint,
                       const TranOptions& options) const {
  const double at = checkpoint.at_;
  const TranOptions& o = checkpoint.options_;
  static_assert(sizeof(TranOptions) == 6 * sizeof(double) + 8,
                "compare every TranOptions field below");
  if (!checkpoint.taken_ || checkpoint.engine_ != engine_id_ ||
      !(options.t_stop > at) || !same_bits(o.dt_max, options.dt_max) ||
      !same_bits(o.dt_min, options.dt_min) ||
      !same_bits(o.v_abstol, options.v_abstol) ||
      !same_bits(o.i_abstol, options.i_abstol) ||
      !same_bits(o.lte_tol, options.lte_tol) ||
      o.max_nr_iterations != options.max_nr_iterations)
    return false;
  const auto& sources = circuit_.vsources();
  if (checkpoint.waves_.size() != sources.size()) return false;
  for (std::size_t i = 0; i < sources.size(); ++i)
    if (!checkpoint.waves_[i].agrees_until(sources[i].wave, at)) return false;
  const auto same_values = [](const std::vector<double>& recorded,
                              const auto& elements, auto value) {
    if (recorded.size() != elements.size()) return false;
    for (std::size_t i = 0; i < elements.size(); ++i)
      if (!same_bits(recorded[i], value(elements[i]))) return false;
    return true;
  };
  // The DC operating point does not see the capacitors.
  return same_values(checkpoint.ohms_, circuit_.resistors(),
                     [](const Resistor& r) { return r.ohms; }) &&
         (at == 0.0 ||
          same_values(checkpoint.farads_, circuit_.capacitors(),
                      [](const Capacitor& c) { return c.farads; }));
}

void Engine::take(TranCheckpoint& checkpoint, const TranOptions& options,
                  const TranCheckpoint::State& state) const {
  checkpoint.taken_ = true;
  checkpoint.engine_ = engine_id_;
  checkpoint.options_ = options;
  checkpoint.waves_.clear();
  for (const VoltageSource& v : circuit_.vsources())
    checkpoint.waves_.push_back(v.wave);
  checkpoint.ohms_.clear();
  for (const Resistor& r : circuit_.resistors())
    checkpoint.ohms_.push_back(r.ohms);
  checkpoint.farads_.clear();
  for (const Capacitor& c : circuit_.capacitors())
    checkpoint.farads_.push_back(c.farads);
  checkpoint.state_ = state;
  checkpoint.state_.diag = last_diag_;
}

TranResult Engine::transient(const TranOptions& options,
                             TranCheckpoint* checkpoint) {
  if (reference_step_control_) return transient_reference(options);
  OBS_SPAN("spice.transient");
  const auto& cap_elems = circuit_.capacitors();
  auto vnode = [&](const std::vector<double>& xs, NodeId id) {
    return id == kGround ? 0.0 : xs[static_cast<std::size_t>(id - 1)];
  };
  if (effective_solver() != LinearSolver::kDense) checkpoint = nullptr;
  const double at = checkpoint != nullptr ? checkpoint->at() : 0.0;

  // `s` is everything the step loop carries from one step to the next.
  TranCheckpoint::State s;
  // Whether this run may still record its state at `at`.
  bool recording = false;
  if (checkpoint != nullptr && resumable(*checkpoint, options)) {
    s = checkpoint->state_;
    last_diag_ = s.diag;
    transient_resumes_counter().add(1);
  } else {
    s.result = empty_result();
    s.x = dc_operating_point(0.0, options);
    // Capacitor states at t = 0: steady state, no current.
    s.caps.resize(cap_elems.size());
    for (std::size_t i = 0; i < cap_elems.size(); ++i)
      s.caps[i].voltage =
          vnode(s.x, cap_elems[i].a) - vnode(s.x, cap_elems[i].b);
    s.result.append(0.0, s.x, n_nodes_);
    // `dt` is the nominal step and only the error controller writes it:
    // rejections shrink it (a rejection at a breakpoint-clipped dt_eff is
    // still real evidence, since dt_eff <= dt), acceptance grows or holds
    // it. Breakpoint clipping itself never feeds back — historically the
    // accepted clipped step was written back into the controller, so
    // landing near a PWL corner with a tiny clip collapsed the nominal
    // step and the rest of the run crawled back up at 1.5x per accepted
    // step.
    s.dt = options.dt_max / 16.0;
    s.x_prev2 = s.x;  // two steps back, for the predictor
    s.dt_prev = s.dt;
    if (checkpoint != nullptr && at == 0.0) {
      take(*checkpoint, options, s);
    } else if (checkpoint != nullptr && at > 0.0 && options.t_stop >= at) {
      // Only a source point at `at` caps every step before it, so that
      // the sources' later points and t_stop cannot shape the prefix.
      recording = std::any_of(
          circuit_.vsources().begin(), circuit_.vsources().end(),
          [at](const VoltageSource& v) { return v.wave.has_point_at(at); });
    }
  }

  // Per-step work vectors live in the context: a warm transient allocates
  // nothing inside this loop (asserted by the golden suite). The sparse
  // core never touches the dense dim^2 buffers, so skip them.
  ctx_->prepare(dim_, n_nodes_,
                effective_solver() != LinearSolver::kSparse);
  std::vector<double>& x_pred = ctx_->x_pred_;
  std::vector<double>& x_new = ctx_->x_new_;

  // Step accounting, flushed to the registry in one batch per transient.
  transients_counter().add(1);
  std::uint64_t accepted = 0, rejected = 0, retries = 0, be_fallbacks = 0;
  const auto flush_steps = [&] {
    transient_steps_counter().add(accepted);
    if (rejected > 0) transient_rejected_counter().add(rejected);
    if (retries > 0) transient_retries_counter().add(retries);
    if (be_fallbacks > 0) transient_be_fallback_counter().add(be_fallbacks);
  };

  while (s.t < options.t_stop - 1e-18) {
    // Land exactly on source breakpoints so PWL corners are not smeared.
    double dt_eff = std::min(s.dt, options.t_stop - s.t);
    for (const VoltageSource& src : circuit_.vsources()) {
      const double bp = src.wave.next_breakpoint(s.t);
      if (bp > s.t && bp - s.t < dt_eff) dt_eff = bp - s.t;
    }
    // The checkpoint needs every attempt before `at` to start where the
    // point at `at` is still the next breakpoint it can clip to (the
    // engine's 1e-18 s resolution, as in the loop test and
    // next_breakpoint) and to solve no later than `at`.
    if (recording &&
        !(s.t + 1e-18 < at && s.t < at - 1e-18 && s.t + dt_eff <= at))
      recording = false;

    // Warm-start Newton from the linear predictor; typically saves one to
    // two iterations per accepted step.
    std::copy(s.x.begin(), s.x.end(), x_pred.begin());
    if (s.have_prev) {
      for (std::size_t i = 0; i < dim_; ++i)
        x_pred[i] = s.x[i] + (s.x[i] - s.x_prev2[i]) * (dt_eff / s.dt_prev);
    }

    // Per-step retry ladder before shrinking the step: (0) the plain
    // trapezoidal attempt, (1) the same step with a larger NR budget,
    // (2) a backward-Euler step (damps the companion-current ringing that
    // stalls NR right after a sharp edge). Only when all three fail is
    // the timestep cut, and only dt underflow is a hard failure.
    SolveSetup setup;
    setup.transient = true;
    setup.t = s.t + dt_eff;
    setup.h = dt_eff;
    NrOutcome out;
    bool ok = false;
    bool used_be = false;
    for (int attempt = 0; attempt < 3 && !ok; ++attempt) {
      if (attempt > 0) ++retries;
      TranOptions ladder = options;
      if (attempt >= 1) ladder.max_nr_iterations *= 2;
      setup.backward_euler = attempt == 2;
      if (attempt == 2) ++be_fallbacks;
      std::copy(x_pred.begin(), x_pred.end(), x_new.begin());
      out = solve_nonlinear(x_new, setup, s.caps, ladder);
      ok = out.converged;
    }
    used_be = ok && setup.backward_euler;
    if (!ok) {
      ++rejected;
      s.dt = dt_eff / 4.0;
      if (s.dt < options.dt_min) {
        flush_steps();
        solve_error_counter().add(1);
        last_diag_ =
            diagnose(out, setup, "transient:retry>be>dt_underflow");
        throw SolveError("transient: timestep underflow", last_diag_);
      }
      continue;
    }
    last_diag_ = diagnose(out, setup,
                          used_be ? "transient:retry>be" : "transient");

    // Local-error estimate: deviation from the linear predictor based on
    // the last accepted step. Large deviation => halve the step. A step
    // the ladder rescued with backward Euler is exempt from rejection
    // (it was already the emergency path; halving re-enters the ladder
    // with no new information), but never grows the next step.
    if (s.have_prev) {
      double err = 0.0;
      for (std::size_t i = 0; i < n_nodes_; ++i) {
        const double slope = (s.x[i] - s.x_prev2[i]) / s.dt_prev;
        const double pred = s.x[i] + slope * dt_eff;
        err = std::max(err, std::abs(x_new[i] - pred));
      }
      if (!used_be && err > options.lte_tol * 50.0 &&
          dt_eff > options.dt_min * 16.0) {
        ++rejected;
        s.dt = dt_eff / 2.0;
        continue;
      }
      // Graded growth: far below tolerance (the flat stretches between
      // stimulus edges) doubles the step so the controller re-reaches
      // dt_max in a few steps after an edge forced it down; merely good
      // error grows conservatively. BE rescue or mediocre error holds.
      if (!used_be && err < options.lte_tol * 0.5)
        s.dt = std::min(s.dt * 2.0, options.dt_max);
      else if (!used_be && err < options.lte_tol * 5.0)
        s.dt = std::min(s.dt * 1.5, options.dt_max);
    }

    // Accept the step: update capacitor companion states with the same
    // integration method the converged solve used.
    for (std::size_t i = 0; i < cap_elems.size(); ++i) {
      if (cap_elems[i].farads <= 0.0) continue;
      CapState& cap = s.caps[i];
      const double v_new =
          vnode(x_new, cap_elems[i].a) - vnode(x_new, cap_elems[i].b);
      if (used_be) {
        const double geq = cap_elems[i].farads / dt_eff;
        cap.current = geq * (v_new - cap.voltage);
      } else {
        const double geq = 2.0 * cap_elems[i].farads / dt_eff;
        cap.current = geq * (v_new - cap.voltage) - cap.current;
      }
      cap.voltage = v_new;
    }
    s.x_prev2 = s.x;
    s.dt_prev = dt_eff;
    s.have_prev = true;
    s.x = x_new;
    s.t += dt_eff;
    ++accepted;
    s.result.append(s.t, s.x, n_nodes_);
    if (recording && s.t == at) {
      take(*checkpoint, options, s);
      recording = false;
    }
  }
  flush_steps();
  s.result.set_final_state(s.x);
  return std::move(s.result);
}

}  // namespace cryo::spice
