// Dense MNA kernel: LU with partial pivoting for cell-scale systems (every
// catalog cell, and so every committed Liberty artifact).
//
// lu_solve is the seed kernel, kept as the oracle: the golden suite, the
// reference-stamping mode and the kernel tests compare against it.
// DenseLu is what the engine's dense core runs. It replays lu_solve's
// elimination through a schedule that skips the structural zeros of one
// engine's MNA pattern, and it is bit-identical to lu_solve:
//
//   analyze()       once per engine: records which entries can be non-zero
//                   (the engine's entry list) and drops the schedule.
//   factor_solve()  every NR iteration. The first call runs the seed loop,
//                   records its pivot rows and builds the schedule: per
//                   column, the candidate pivot rows, the row-swap columns,
//                   the rows to eliminate and the pivot row's non-zero
//                   columns. Later calls replay it, choosing each pivot by
//                   the seed rule (strict >, first in position order) over
//                   the candidates only. At the first column whose pivot
//                   differs from the recorded row the matrix is exactly the
//                   seed's, so the seed loop takes over from that column
//                   and the schedule is re-recorded from the new pivots.
//
// Exactness: an entry outside the structural pattern is +0.0 (A and b are
// accumulated from +0.0 with +=, so no entry is ever -0). The replay skips
// only seed operations with a zero operand, a - f*0 or a row whose f is 0,
// and with f and u finite those leave every entry unchanged. The input
// guard keeps f finite: non-finite entries, a column scale or a non-zero
// |b_i| outside [2^-900, 2^900], a -0 in b, and systems over
// kMaxScheduledDim unknowns, all take the seed loop. Back-substitution
// walks each row's recorded upper columns in ascending order; it skips
// acc - 0*x terms, which leave acc unchanged while x is finite, and hands
// the rows left to the seed's dense loop at the first non-finite entry of
// x. Enabling FP contraction (-mfma, -march=native, -ffast-math) would
// change bits in both kernels and in the committed artifacts.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "spice/sparse.hpp"

namespace cryo::spice {

// Conditioning report from one LU factorization.
struct LuStats {
  // Smallest |pivot| / column-scale ratio seen across all elimination
  // columns; the column scale is the largest |entry| of the original
  // column, so the ratio is 1.0 for a well-scaled diagonal system.
  double min_pivot_ratio = 1.0;
  bool near_singular = false;  // ratio dipped below kLuNearSingularRatio
};

// Pivot acceptance thresholds, relative to each column's scale. Below
// kLuSingularRatio the factorization is rejected; between the two the
// system is solved but flagged near-singular (NR on such a system tends
// to oscillate, which the caller's diagnostics should mention).
inline constexpr double kLuSingularRatio = 1e-13;
inline constexpr double kLuNearSingularRatio = 1e-8;

// Dense LU solve with partial pivoting: solves a*x = b, a is n x n
// row-major (destroyed). Returns false if singular (pivot below
// kLuSingularRatio of its column scale). `stats`, when given, reports
// conditioning even on success.
bool lu_solve(std::vector<double>& a, std::vector<double>& b, std::size_t n,
              LuStats* stats = nullptr);

// Workspace variant: `scale` is caller-owned scratch for the column
// scales, so repeated solves allocate nothing. Numerically identical to
// the allocating overload (which forwards here).
bool lu_solve(std::vector<double>& a, std::vector<double>& b, std::size_t n,
              std::vector<double>& scale, LuStats* stats);

// The scheduled dense kernel (see the file comment). Owned by SolveContext
// under the owning engine's id, like the sparse state. The schedule lists
// are sized n^2 in analyze() and only grow, so schedule rebuilds inside a
// warm transient allocate nothing.
class DenseLu {
 public:
  // Larger systems (only forced-kDense oracles reach them) always take
  // the seed loop; a row's pattern fits one 64-bit mask up to here.
  static constexpr std::size_t kMaxScheduledDim = 64;

  // Records the structural pattern of the n x n system: coords with a
  // negative row or column (ground) are dropped. Grow-only buffers count
  // real reallocations into *allocations (the SolveContext::allocations()
  // ledger). Drops the schedule.
  void analyze(std::size_t n, const std::vector<sparse::Coord>& coords,
               std::uint64_t* allocations);

  // Solves a*x = b exactly as lu_solve(a, b, n, stats) does: the same
  // return value, the same stats, the same bits in b (the solution) and
  // in a. Non-zero entries of `a` must lie inside the analyzed pattern.
  bool factor_solve(std::vector<double>& a, std::vector<double>& b,
                    LuStats* stats);

  // Schedules built since construction: one per analyzed pattern plus one
  // per pivot change.
  std::uint64_t schedules() const { return schedules_; }

 private:
  // Start of one column's slice in each schedule list.
  struct Offsets {
    std::uint16_t cand = 0, swap = 0, elim = 0, upper = 0;
  };

  // Column scales as lu_solve computes them, over the pattern only (every
  // other entry is +0). False when the input guard sends the system to
  // the seed loop.
  bool column_scales(const std::vector<double>& a,
                     const std::vector<double>& b);
  // Re-records the schedule from pattern_ and pivots_.
  void build();

  std::size_t n_ = 0;
  bool scheduled_ = false;  // the lists below replay pivots_
  std::uint64_t schedules_ = 0;
  std::vector<double> scale_;  // column scales, n
  std::array<std::uint64_t, kMaxScheduledDim> pattern_{};  // row: columns
  std::array<std::uint8_t, kMaxScheduledDim> pivots_{};    // column: row
  std::array<Offsets, kMaxScheduledDim + 1> at_{};         // column slices
  std::vector<std::uint8_t> cand_;   // candidate pivot rows, n^2
  std::vector<std::uint8_t> swap_;   // row-swap columns, n^2
  std::vector<std::uint8_t> elim_;   // rows to eliminate, n^2
  std::vector<std::uint8_t> upper_;  // pivot row's non-zero columns, n^2
};

}  // namespace cryo::spice
