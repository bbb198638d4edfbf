// Modified-nodal-analysis engine: Newton-Raphson DC operating point with
// gmin stepping and source-stepping continuation, and adaptive trapezoidal
// transient analysis with a per-step retry ladder (NR budget boost ->
// backward-Euler step -> timestep reduction).
//
// Two linear-solver cores sit behind one factor-and-solve seam: the dense
// LU of dense.hpp for cell-scale systems (every catalog cell, and so every
// committed Liberty artifact), and the CSC sparse LU of sparse.hpp for
// block-scale netlists (SRAM columns, replicated nets). A full SoC is
// never simulated at the transistor level (that is what the gate-level
// STA/power tools are for).
//
// Hot-path structure: the constructor lists every matrix entry once, in
// one fixed stamp order. Each core maps entry k to a flat index into its
// value array (a row-major offset, or a CSC value slot), so one stamp pass
// and one NR loop serve both. Every NR solve stamps the linear skeleton
// (resistors, capacitor companions, source rows) exactly once into a
// SolveContext, then each NR iteration memcpy's the skeleton back and
// restamps only the MOSFET conductances and the gmin diagonal. Both cores
// also analyze the entry list once per engine: the sparse core for its
// pattern and ordering, the dense core for the elimination schedule it
// replays bit-identically to the seed lu_solve. All solver workspaces live
// in the SolveContext, so a warm transient performs zero heap allocations
// in its step loop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/dense.hpp"
#include "spice/sparse.hpp"

namespace cryo::spice {

// Which linear-solver core the NR loop runs on. kAuto picks dense for
// cell-scale systems (where dense LU's cache behavior and lack of pattern
// bookkeeping win, and where the committed Liberty artifacts pin the exact
// bit pattern) and sparse at block scale; kDense / kSparse force a path
// for oracles and tests.
enum class LinearSolver { kAuto, kDense, kSparse };

struct TranOptions {
  double t_stop = 1e-9;       // simulation end time [s]
  double dt_max = 5e-12;      // maximum timestep [s]
  double dt_min = 1e-18;      // minimum timestep before giving up [s]
  double v_abstol = 1e-6;     // NR voltage convergence [V]
  double i_abstol = 1e-9;     // NR current convergence [A]
  double lte_tol = 1e-4;      // local-error acceptance threshold [V]
  int max_nr_iterations = 60;
};

// Reusable solver workspace: the MNA matrix, its cached linear skeleton,
// and every per-iteration scratch vector. An Engine owns a private context
// by default; callers running many solves over many circuits (a
// characterization arc sweep) construct one context and hand it to every
// Engine they create, so buffers allocated for the first circuit are
// reused by all subsequent ones. Buffers only ever grow, and allocations()
// counts how many times any buffer actually (re)allocated — a warm solver
// reports zero new allocations, which the golden suite asserts.
//
// A context is NOT thread-safe: engines sharing one must run on one thread
// (charlib uses one context per cell task).
class SolveContext {
 public:
  SolveContext() = default;

  // Workspace (re)allocations since construction. Stays flat across warm
  // solves; grows only when a circuit needs larger buffers than any seen
  // before.
  std::uint64_t allocations() const { return allocations_; }

 private:
  friend class Engine;

  // Grows `v` to `size` elements, counting real reallocations.
  template <class T>
  void grow(std::vector<T>& v, std::size_t size) {
    if (v.capacity() < size) ++allocations_;
    v.resize(size);
  }
  // `dense` skips the O(dim^2) matrix buffers when the sparse core is
  // active (they would dominate the context's footprint at block scale).
  void prepare(std::size_t dim, std::size_t n_nodes, bool dense = true) {
    if (dense) {
      grow(a_lin_, dim * dim);
      grow(a_, dim * dim);
    }
    grow(z_lin_, dim);
    grow(z_, dim);
    grow(prev_dv_, n_nodes);
    grow(x_pred_, dim);
    grow(x_new_, dim);
    // Pooled reuse across circuits: buffers sized for a larger previous
    // circuit keep that circuit's tail data, and grow() never clears. All
    // current consumers overwrite their active slice before reading, but
    // that is an invariant of each consumer, not of the context — so on
    // any dimension switch, clear everything once. Cheap (it happens per
    // topology change, never per solve of one circuit) and it makes
    // "fresh context" and "pooled context" byte-equivalent by
    // construction.
    if (dim != last_dim_ || n_nodes != last_n_nodes_) {
      const auto zero = [](std::vector<double>& v) {
        std::fill(v.begin(), v.end(), 0.0);
      };
      zero(a_lin_);
      zero(a_);
      zero(z_lin_);
      zero(z_);
      zero(prev_dv_);
      zero(x_pred_);
      zero(x_new_);
      last_dim_ = dim;
      last_n_nodes_ = n_nodes;
    }
  }

  std::vector<double> a_lin_, z_lin_;  // linear skeleton (per NR solve)
  std::vector<double> a_, z_;          // working system (per NR iteration)
  std::vector<double> prev_dv_;        // per-node damping memory
  std::vector<double> x_pred_, x_new_; // transient predictor / candidate
  std::size_t last_dim_ = 0, last_n_nodes_ = 0;
  // Per-engine solver state, owned here so pooled contexts keep the grown
  // buffers across engines: the dense core's elimination schedule, and
  // the sparse core's pattern, ordering, frozen LU and workspaces. The
  // owner tags say which Engine each belongs to; an engine finding
  // someone else's tag re-analyzes. sparse_slot_ is sparse_lu_.slot_of()
  // widened to the dense map's type.
  DenseLu dense_lu_;
  std::uint64_t dense_owner_ = 0;
  sparse::SparseLu sparse_lu_;
  std::vector<std::size_t> sparse_slot_;
  std::uint64_t sparse_owner_ = 0;
  std::uint64_t allocations_ = 0;
};

// Structured account of how a solve went: which node was worst, how hard
// the fallback ladder had to work, and where it gave up. Attached to every
// SolveError so an unattended characterization farm can log *why* an arc
// failed instead of a bare string, and filled for successful solves too
// (Engine::last_diagnostics).
struct SolveDiagnostics {
  std::string failing_node;    // node with the worst NR update (may be empty)
  double worst_residual = 0.0; // worst node update at the last NR pass [V]
  int iterations = 0;          // NR iterations of the decisive solve
  double gmin_reached = 0.0;   // gmin in effect when the solve ended
  double source_scale = 1.0;   // continuation scale when the solve ended
  double time = 0.0;           // transient time of the failure (0 for DC)
  bool near_singular = false;  // LU saw a pivot near the relative threshold
  std::string fallback_path;   // e.g. "direct>gmin>source_step"

  // One-line human rendering for logs and exception messages.
  std::string to_string() const;
};

// Convergence failure with the full diagnostics attached. what() includes
// the rendered diagnostics so existing catch sites lose nothing.
class SolveError : public std::runtime_error {
 public:
  SolveError(const std::string& context, SolveDiagnostics diagnostics);
  const SolveDiagnostics& diagnostics() const { return diag_; }

 private:
  SolveDiagnostics diag_;
};

// Result of a transient run: node voltages and source branch currents
// sampled at every accepted timestep.
class TranResult {
 public:
  TranResult() = default;
  TranResult(std::vector<std::string> node_names,
             std::vector<std::string> source_names)
      : node_names_(std::move(node_names)),
        source_names_(std::move(source_names)) {}

  // Trace of a node voltage by name (throws if unknown).
  Trace node(const std::string& name) const;
  // Trace of the branch current through voltage source `index` (current
  // flowing from the positive terminal through the source).
  Trace source_current(std::size_t index) const;
  Trace source_current(const std::string& name) const;

  std::size_t sample_count() const { return time_.size(); }

  // Full solution vector (node voltages then source branch currents) at
  // the last accepted timestep; usable as a warm start for a DC solve.
  // Assigned once when the transient finishes, not per accepted step.
  const std::vector<double>& final_state() const { return final_state_; }

  // Engine-internal appenders.
  void append(double t, const std::vector<double>& x, std::size_t n_nodes);
  void set_final_state(const std::vector<double>& x) { final_state_ = x; }

 private:
  std::vector<std::string> node_names_;
  std::vector<std::string> source_names_;
  std::vector<double> time_;
  std::vector<double> final_state_;
  // Column-major storage: one vector per signal.
  std::vector<std::vector<double>> node_values_;
  std::vector<std::vector<double>> source_values_;
};

// Companion-model state of one capacitor between transient steps.
struct CapState {
  double voltage = 0.0;  // v(a) - v(b) at the last accepted step
  double current = 0.0;  // companion current at the last accepted step
};

// A transient's state at time at(), so that later runs whose stimulus
// agrees up to there skip simulating it again (Engine::transient). For
// at() > 0 it is the state after the accepted step that landed exactly
// on a source point at at(); for at() = 0 the DC operating point. It
// holds x, the predictor's previous x and step, the controller's step,
// the capacitor states, the samples so far and the last diagnostics,
// plus what the run depended on up to at(), which a resume checks.
class TranCheckpoint {
 public:
  explicit TranCheckpoint(double at = 0.0) : at_(at) {}
  double at() const { return at_; }
  // Whether a run has recorded its state here.
  bool taken() const { return taken_; }

 private:
  friend class Engine;
  struct State {
    double t = 0.0;
    double dt = 0.0;       // the error controller's nominal step
    double dt_prev = 0.0;  // the last accepted step, for the predictor
    bool have_prev = false;
    std::vector<double> x, x_prev2;
    std::vector<CapState> caps;
    TranResult result;
    SolveDiagnostics diag;
  };

  double at_;
  bool taken_ = false;
  // What the recorded prefix depended on.
  std::uint64_t engine_ = 0;
  TranOptions options_;
  std::vector<Waveform> waves_;
  std::vector<double> ohms_, farads_;
  State state_;
};

class Engine {
 public:
  // `context` lets callers share one solver workspace across many engines
  // (sequentially — a context is single-threaded); nullptr means the
  // engine uses its own private context.
  explicit Engine(const Circuit& circuit, SolveContext* context = nullptr);

  // Newton-Raphson DC operating point with sources evaluated at time t.
  // Convergence ladder: direct solve -> gmin stepping (with a final polish
  // at the nominal gmin, so ladder and direct solutions agree) ->
  // source-stepping continuation (all sources ramped from 0 to full value,
  // each solve warm-started from the previous scale). Throws SolveError
  // when even the full ladder fails. The options overload lets callers
  // tighten or relax the NR budget/tolerances.
  std::vector<double> dc_operating_point(double t = 0.0);
  std::vector<double> dc_operating_point(double t,
                                         const TranOptions& options);

  // DC operating point solved from an explicit initial state (e.g. a
  // transient's final_state()). Circuits with multiple stable states —
  // keeper loops in sequential cells — converge to the solution *near*
  // the warm start rather than the metastable point a cold solve can
  // settle at. Falls back to the cold solve (full ladder) if NR diverges.
  std::vector<double> dc_operating_point_from(std::vector<double> x0,
                                              double t);

  // Adaptive-step trapezoidal transient starting from the DC operating
  // point at t = 0. A non-convergent step walks a retry ladder (larger NR
  // budget, then a backward-Euler step, then a reduced timestep) before
  // SolveError is thrown on timestep underflow. Breakpoint clipping never
  // feeds back into the step controller: landing on a PWL corner caps the
  // one step (and its retries), not the nominal step size.
  //
  // With a `checkpoint`, the run resumes from its state when that is
  // provably the state this run reaches at checkpoint->at(): the
  // checkpoint was taken on this engine, the options match in every
  // field but t_stop (which must lie past at()), every source agrees
  // with its recorded waveform up to at() (Waveform::agrees_until), every
  // resistor value matches and, when at() > 0, every capacitor value
  // (the Circuit has no mutator for anything else). Otherwise the run
  // starts from scratch and records its state at at() into the
  // checkpoint, if it lands there exactly with every earlier step capped
  // by a source point at at(). Either way the result is bit-identical
  // to transient(options). The sparse core, whose frozen pivots carry
  // over between solves, ignores checkpoints.
  TranResult transient(const TranOptions& options,
                       TranCheckpoint* checkpoint = nullptr);

  // Diagnostics of the most recent top-level solve on this engine (DC or
  // the last transient step), successful or not.
  const SolveDiagnostics& last_diagnostics() const { return last_diag_; }

  // Reference oracle: stamp the full MNA system from scratch on every NR
  // iteration with per-solve allocated workspaces and factor it with the
  // seed lu_solve (the pre-SolveContext implementation, kept verbatim).
  // The golden and dense suites assert the incremental path, with its
  // scheduled dense LU, is bit-identical to it, and perf_microbench uses
  // it as the recorded baseline for the NR-throughput gate. Step selection
  // is unchanged by this flag, so traces are directly comparable. Forces
  // the dense core.
  void set_reference_stamping(bool on) { reference_stamping_ = on; }

  // Linear-solver selection. kAuto switches from dense LU to the sparse
  // core at kSparseAutoThreshold unknowns: every catalog cell sits well
  // below it (so the characterizer's arithmetic — and the committed
  // Liberty artifacts — are untouched by this seam), while block-level
  // netlists (SRAM columns, replicated nets, chained paths) go sparse.
  // kDense is the oracle any sparse result can be cross-checked against:
  // the exact arithmetic the golden suite pins.
  static constexpr std::size_t kSparseAutoThreshold = 64;
  void set_solver(LinearSolver solver) { solver_ = solver; }
  // The path a solve on this engine will actually take.
  LinearSolver effective_solver() const {
    if (reference_stamping_) return LinearSolver::kDense;
    if (solver_ == LinearSolver::kAuto)
      return dim_ >= kSparseAutoThreshold ? LinearSolver::kSparse
                                          : LinearSolver::kDense;
    return solver_;
  }

  // Replays the seed step controller verbatim — including the
  // breakpoint-clipping feedback bug and the per-step bookkeeping copies —
  // so perf_microbench can benchmark the full pre-PR engine (combine with
  // set_reference_stamping(true)) on breakpoint-dense workloads. Not an
  // oracle for trace comparison: the buggy controller picks different
  // steps by design.
  void set_reference_step_control(bool on) {
    reference_step_control_ = on;
  }

  const SolveContext& context() const { return *ctx_; }

 private:
  // Per-solve configuration threaded through build/solve_nonlinear:
  // continuation scale multiplies every source value; backward_euler
  // selects BE companions over trapezoidal ones for this step.
  struct SolveSetup {
    double t = 0.0;
    bool transient = false;
    double h = 0.0;
    double gmin = 1e-12;
    double source_scale = 1.0;
    bool backward_euler = false;
  };

  // Outcome of one NR solve, kept structured so the fallback ladder can
  // fill SolveDiagnostics without re-deriving anything.
  struct NrOutcome {
    bool converged = false;
    int iterations = 0;
    double worst_dv = 0.0;       // node update magnitude at the last pass
    std::size_t worst_node = 0;  // 0-based index of that node
    bool singular = false;       // LU refused the system outright
    bool near_singular = false;  // LU flagged an ill-conditioned pivot
  };

  // Slot-map value of an entry that lands on a ground row or column. The
  // sparse core's kNoSlot (-1) widens to exactly this value.
  static constexpr std::size_t kDropped = static_cast<std::size_t>(-1);

  // Stamps the linear skeleton — resistors, capacitor companions, source
  // rows — into zeroed a/z, each matrix entry through `slot` (the active
  // core's entry map). Everything here is constant across the NR
  // iterations of one solve. The MOSFET and gmin entries are added per
  // iteration, after the skeleton, which preserves the historical
  // per-entry accumulation order (diagonal entries sum resistor + cap +
  // MOSFET + gmin contributions in exactly that order, so dense results
  // stay bit-identical to the full-rebuild reference).
  void build_linear(const SolveSetup& setup,
                    const std::vector<CapState>& caps,
                    const std::vector<std::size_t>& slot,
                    std::vector<double>& a, std::vector<double>& z) const;

  // Restamps the MOSFET conductances linearized around x_prev.
  void stamp_mosfets(const std::vector<double>& x_prev,
                     const std::vector<std::size_t>& slot,
                     std::vector<double>& a, std::vector<double>& z) const;

  // (Re)analyze entries_ for the active core when this engine does not
  // own the context's state: the dense elimination pattern, or the sparse
  // pattern, ordering and slot map.
  void ensure_dense() const;
  void ensure_sparse() const;

  // Reference full rebuild (the historical Engine::build), used by the
  // reference stamping mode only.
  void build_reference(const std::vector<double>& x_prev,
                       const SolveSetup& setup,
                       const std::vector<CapState>& caps,
                       std::vector<double>& a,
                       std::vector<double>& z) const;

  // Solves the NR loop on the effective core; x in/out.
  NrOutcome solve_nonlinear(std::vector<double>& x, const SolveSetup& setup,
                            const std::vector<CapState>& caps,
                            const TranOptions& options) const;
  NrOutcome solve_nonlinear_reference(std::vector<double>& x,
                                      const SolveSetup& setup,
                                      const std::vector<CapState>& caps,
                                      const TranOptions& options) const;

  // The seed transient loop, kept verbatim for the reference step-control
  // mode (clipping feeds the controller, per-step workspace allocations,
  // per-step final-state copies).
  TranResult transient_reference(const TranOptions& options);

  // A result with this circuit's signal names and no samples.
  TranResult empty_result() const;
  // The resume checks of transient() against the current circuit.
  bool resumable(const TranCheckpoint& checkpoint,
                 const TranOptions& options) const;
  // Records the run's state at checkpoint.at() with what it depended on.
  void take(TranCheckpoint& checkpoint, const TranOptions& options,
            const TranCheckpoint::State& state) const;

  // Renders an NrOutcome into diagnostics (node names resolved).
  SolveDiagnostics diagnose(const NrOutcome& out, const SolveSetup& setup,
                            const std::string& fallback_path) const;

  const Circuit& circuit_;
  std::size_t n_nodes_;
  std::size_t n_sources_;
  std::size_t dim_;
  // Every matrix entry the stamps touch, listed once in stamp order:
  // resistors (4 each), capacitors (4), source rows (4), MOSFETs (6), then
  // the per-node gmin diagonal. Ground rows/columns are negative. This is
  // the coordinate list both cores analyze.
  std::vector<sparse::Coord> entries_;
  std::size_t mos_begin_ = 0;  // index of the first MOSFET entry
  // The dense core's entry map: entries_[k] -> row-major offset.
  std::vector<std::size_t> dense_slot_;
  SolveContext owned_ctx_;
  SolveContext* ctx_;  // owned_ctx_ or a caller-shared context
  std::uint64_t engine_id_;  // owner tag of the context's solver state
  LinearSolver solver_ = LinearSolver::kAuto;
  bool reference_stamping_ = false;
  bool reference_step_control_ = false;
  SolveDiagnostics last_diag_;
};

}  // namespace cryo::spice
