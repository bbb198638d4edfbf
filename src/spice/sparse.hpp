// Sparse MNA kernel: compressed-sparse-column LU with a fill-reducing
// ordering and a symbolic factorization computed once per circuit topology,
// then numerically refactored per NR iteration.
//
// Lifecycle (driven by Engine, state pooled in SolveContext):
//
//   analyze()       once per topology: dedupes the stamp coordinates into a
//                   CSC pattern and computes a minimum-degree column order.
//                   May allocate (it runs once per Engine, like the dense
//                   path's stamp-slot precompute).
//   factor()        first NR iteration (and rare repivots): left-looking
//                   Gilbert-Peierls LU with partial pivoting. Discovers the
//                   L/U fill pattern and the row-pivot permutation, then
//                   freezes both. May grow the pooled L/U arrays.
//   refactor()      every later NR iteration: numeric-only refactorization
//                   through the frozen pattern and pivot order. Strictly
//                   allocation-free; cost is O(nnz(L)+nnz(U)) flops. A pivot
//                   that collapses relative to its column scale rejects the
//                   refactorization so the caller can re-run factor() (new
//                   values may need new pivots).
//   solve()         permuted triangular solves; allocation-free.
//
// Determinism: the DFS order, the pivot tie-break (strictly-greater
// magnitude wins, so the first/lowest reach-order row keeps ties), and the
// ordering tie-break (lowest node index) are all fixed functions of the
// pattern and values, so factorizations are bit-reproducible at any thread
// count — the same guarantee the dense path gives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cryo::spice::sparse {

// Sentinel for a stamp coordinate dropped on ground.
inline constexpr std::int32_t kNoSlot = -1;

// One potential nonzero of the MNA matrix; row/col are 0-based matrix
// indices, negative means ground (dropped).
struct Coord {
  std::int32_t row = -1;
  std::int32_t col = -1;
};

// Outcome of a numeric factorization pass.
enum class FactorStatus {
  kOk,          // factored; values valid for solve()
  kRepivot,     // refactor only: frozen pivots went stale, re-run factor()
  kSingular,    // no acceptable pivot (relative test, dense-LU semantics)
};

// Grow-only resize, counting real reallocations into *allocations (the
// SolveContext::allocations() ledger; same contract as SolveContext::grow).
// Shared by the solver cores whose state SolveContext owns.
template <class T>
void grow(std::vector<T>& v, std::size_t size, std::uint64_t* allocations) {
  if (v.capacity() < size && allocations != nullptr) ++*allocations;
  v.resize(size);
}

// Conditioning report, mirroring the dense LuStats semantics: the ratio is
// |pivot| / (max |entry| of the original assembled column).
struct FactorStats {
  double min_pivot_ratio = 1.0;
  bool near_singular = false;
};

// All sparse state: the A pattern + stamp-slot map, the ordering, the
// frozen L/U factorization, and every workspace. Owned by SolveContext so
// pooled contexts reuse the buffers across engines/arcs; every vector is
// grow-only via grow(), which counts real reallocations into *allocations
// (the SolveContext::allocations() ledger).
class SparseLu {
 public:
  // Builds the CSC pattern from `coords` (duplicates accumulate into one
  // slot; ground coords get kNoSlot) and the fill-reducing column order.
  // slot_of()[i] afterwards maps coords[i] to its value slot. Resets the
  // factorization (factored() == false).
  void analyze(std::size_t n, const std::vector<Coord>& coords,
               std::uint64_t* allocations);

  bool analyzed() const { return n_ > 0; }
  bool factored() const { return factored_; }
  std::size_t dim() const { return static_cast<std::size_t>(n_); }
  std::size_t pattern_nnz() const { return row_idx_.size(); }
  // nnz of the frozen factorization (L + U + diagonal); 0 before factor().
  std::size_t fill_nnz() const {
    return factored_ ? li_.size() + ui_.size() + static_cast<std::size_t>(n_)
                     : 0;
  }

  const std::vector<std::int32_t>& slot_of() const { return slot_of_; }

  // Value array of A, one entry per pattern slot, CSC order. The engine
  // stamps these (skeleton memcpy + incremental restamp) before factoring.
  std::vector<double>& values() { return vals_; }
  // Cached linear-skeleton values, memcpy'd into values() per NR iteration.
  std::vector<double>& skeleton() { return lin_vals_; }

  // Full factorization with partial pivoting (first call, or after a
  // kRepivot). Never returns kRepivot.
  FactorStatus factor(FactorStats* stats, std::uint64_t* allocations);
  // Numeric-only refactorization through the frozen pattern.
  FactorStatus refactor(FactorStats* stats);
  // Solves A x = b using the current factorization; b is overwritten with
  // x (the dense lu_solve contract). b.size() must be >= dim().
  void solve(std::vector<double>& b);

 private:
  void compute_colscale();

  // --- pattern of A (per topology) ---
  std::int32_t n_ = 0;
  std::vector<std::int32_t> col_ptr_;   // n+1
  std::vector<std::int32_t> row_idx_;   // nnz, rows ascending per column
  std::vector<std::int32_t> slot_of_;   // coord index -> slot (or kNoSlot)
  std::vector<double> vals_, lin_vals_; // nnz values: working / skeleton
  std::vector<std::int32_t> q_;         // column order: position -> column

  // --- frozen factorization ---
  bool factored_ = false;
  std::vector<std::int32_t> pinv_;      // original row -> pivot position
  std::vector<std::int32_t> lp_, li_;   // L CSC, strictly lower, pivot rows
  std::vector<double> lx_;
  std::vector<std::int32_t> up_, ui_;   // U CSC, strictly upper, pivot rows
  std::vector<double> ux_;              //   (ascending per column)
  std::vector<double> udiag_;           // U diagonal, pivot order
  std::vector<std::int32_t> arow_piv_;  // row_idx_ through pinv_
  std::vector<double> colscale_;        // per pivot column (original values)

  // --- workspaces (allocation-free steady state) ---
  std::vector<double> work_;            // dense accumulator, kept all-zero
  std::vector<double> ysolve_;          // permuted rhs for solve()
  std::vector<std::int32_t> istack_;    // DFS node stack
  std::vector<std::int32_t> pstack_;    // DFS resume positions
  std::vector<std::int32_t> xi_;        // DFS topological output
  std::vector<std::int64_t> visited_;   // DFS visit stamps
  std::int64_t stamp_ = 0;
};

// Minimum-degree ordering of the symmetrized pattern (A + A^T), smallest
// node index breaking degree ties. Exposed for tests; analyze() calls it.
std::vector<std::int32_t> minimum_degree_order(
    std::int32_t n, const std::vector<std::int32_t>& col_ptr,
    const std::vector<std::int32_t>& row_idx);

}  // namespace cryo::spice::sparse
