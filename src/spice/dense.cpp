#include "spice/dense.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

namespace cryo::spice {
namespace {

// Input-guard bounds of the scheduled replay (see the file comment).
constexpr double kGuardTiny = 0x1p-900;
constexpr double kGuardHuge = 0x1p900;

// The seed elimination loop from column `col` on: pivot search (strict >,
// first in position order), the relative singularity test, a full row
// swap and the f == 0 skip. lu_solve runs it from column 0; DenseLu
// resumes it where a pivot leaves the schedule. `pivots`, when given,
// records each column's pivot row.
bool eliminate(std::vector<double>& a, std::vector<double>& b, std::size_t n,
               const std::vector<double>& scale, std::size_t col,
               double& min_ratio, std::uint8_t* pivots) {
  for (; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row)
      if (std::abs(a[row * n + col]) > std::abs(a[pivot * n + col]))
        pivot = row;
    const double pivot_abs = std::abs(a[pivot * n + col]);
    if (scale[col] <= 0.0 || pivot_abs < kLuSingularRatio * scale[col])
      return false;
    min_ratio = std::min(min_ratio, pivot_abs / scale[col]);
    if (pivots != nullptr) pivots[col] = static_cast<std::uint8_t>(pivot);
    if (pivot != col) {
      for (std::size_t k = 0; k < n; ++k)
        std::swap(a[col * n + k], a[pivot * n + k]);
      std::swap(b[col], b[pivot]);
    }
    const double inv = 1.0 / a[col * n + col];
    for (std::size_t row = col + 1; row < n; ++row) {
      const double f = a[row * n + col] * inv;
      if (f == 0.0) continue;
      for (std::size_t k = col + 1; k < n; ++k)
        a[row * n + k] -= f * a[col * n + k];
      b[row] -= f * b[col];
    }
  }
  return true;
}

// The stats of a successful factorization.
void report(double min_ratio, LuStats* stats) {
  if (stats != nullptr) {
    stats->min_pivot_ratio = min_ratio;
    stats->near_singular = min_ratio < kLuNearSingularRatio;
  }
}

// The seed's back-substitution over rows [0, rows), last first: those
// entries of b become x's (rows from `rows` on are x's already).
void back_substitute(const std::vector<double>& a, std::vector<double>& b,
                     std::size_t n, std::size_t rows) {
  for (std::size_t i = rows; i-- > 0;) {
    double acc = b[i];
    for (std::size_t k = i + 1; k < n; ++k) acc -= a[i * n + k] * b[k];
    b[i] = acc / a[i * n + i];
  }
}

// Appends the set bits of `mask`, lowest first.
void push_bits(std::uint64_t mask, std::vector<std::uint8_t>& out,
               std::uint16_t& len) {
  for (; mask != 0; mask &= mask - 1)
    out[len++] = static_cast<std::uint8_t>(std::countr_zero(mask));
}

}  // namespace

bool lu_solve(std::vector<double>& a, std::vector<double>& b, std::size_t n,
              LuStats* stats) {
  std::vector<double> scale;
  return lu_solve(a, b, n, scale, stats);
}

bool lu_solve(std::vector<double>& a, std::vector<double>& b, std::size_t n,
              std::vector<double>& scale, LuStats* stats) {
  // Column scales from the matrix as given: the relative pivot test
  // catches ill-conditioned systems an absolute epsilon lets through.
  if (scale.size() < n) scale.resize(n);
  std::fill(scale.begin(), scale.begin() + static_cast<std::ptrdiff_t>(n),
            0.0);
  for (std::size_t row = 0; row < n; ++row)
    for (std::size_t col = 0; col < n; ++col)
      scale[col] = std::max(scale[col], std::abs(a[row * n + col]));

  double min_ratio = 1.0;
  if (!eliminate(a, b, n, scale, 0, min_ratio, nullptr)) return false;
  report(min_ratio, stats);
  back_substitute(a, b, n, n);
  return true;
}

void DenseLu::analyze(std::size_t n, const std::vector<sparse::Coord>& coords,
                      std::uint64_t* allocations) {
  n_ = n;
  scheduled_ = false;
  sparse::grow(scale_, n, allocations);
  if (n > kMaxScheduledDim) return;
  for (std::vector<std::uint8_t>* list : {&cand_, &swap_, &elim_, &upper_})
    sparse::grow(*list, n * n, allocations);
  pattern_.fill(0);
  for (const sparse::Coord& e : coords)
    if (e.row >= 0 && e.col >= 0)
      pattern_[static_cast<std::size_t>(e.row)] |= std::uint64_t{1} << e.col;
}

bool DenseLu::column_scales(const std::vector<double>& a,
                            const std::vector<double>& b) {
  const std::size_t n = n_;
  std::fill(scale_.begin(), scale_.end(), 0.0);
  for (std::size_t row = 0; row < n; ++row) {
    for (std::uint64_t m = pattern_[row]; m != 0; m &= m - 1) {
      const std::size_t col = static_cast<std::size_t>(std::countr_zero(m));
      const double v = std::abs(a[row * n + col]);
      if (!(v <= kGuardHuge)) return false;  // also catches NaN
      scale_[col] = std::max(scale_[col], v);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!(scale_[i] >= kGuardTiny)) return false;
    const double v = std::abs(b[i]);
    if (v != 0.0 && !(v >= kGuardTiny && v <= kGuardHuge)) return false;
    if (v == 0.0 && std::signbit(b[i])) return false;  // -0
  }
  return true;
}

void DenseLu::build() {
  // Symbolic elimination with the recorded pivots: rows[r] is the set of
  // columns row position r can hold a non-zero in, swapped and filled the
  // way the seed loop swaps and updates the values.
  const std::size_t n = n_;
  std::array<std::uint64_t, kMaxScheduledDim> rows = pattern_;
  Offsets at;
  for (std::size_t col = 0; col < n; ++col) {
    at_[col] = at;
    const std::uint64_t bit = std::uint64_t{1} << col;
    for (std::size_t row = col + 1; row < n; ++row)
      if (rows[row] & bit) cand_[at.cand++] = static_cast<std::uint8_t>(row);
    const std::size_t pivot = pivots_[col];
    if (pivot != col) {
      push_bits(rows[col] | rows[pivot], swap_, at.swap);
      std::swap(rows[col], rows[pivot]);
    }
    // Columns right of `col` (bit 63 has none).
    const std::uint64_t right = col + 1 < 64 ? ~std::uint64_t{0} << (col + 1)
                                             : std::uint64_t{0};
    const std::uint64_t upper = rows[col] & right;
    push_bits(upper, upper_, at.upper);
    for (std::size_t row = col + 1; row < n; ++row) {
      if (!(rows[row] & bit)) continue;
      elim_[at.elim++] = static_cast<std::uint8_t>(row);
      rows[row] |= upper;
    }
  }
  at_[n] = at;
  scheduled_ = true;
  ++schedules_;
}

bool DenseLu::factor_solve(std::vector<double>& a, std::vector<double>& b,
                           LuStats* stats) {
  const std::size_t n = n_;
  if (n > kMaxScheduledDim || !column_scales(a, b))
    return lu_solve(a, b, n, scale_, stats);

  double min_ratio = 1.0;
  std::size_t col = 0;
  if (scheduled_) {
    for (; col < n; ++col) {
      const Offsets& at = at_[col];
      const Offsets& end = at_[col + 1];
      std::size_t pivot = col;
      double pivot_abs = std::abs(a[col * n + col]);
      for (std::size_t i = at.cand; i < end.cand; ++i) {
        const std::size_t row = cand_[i];
        const double v = std::abs(a[row * n + col]);
        if (v > pivot_abs) {
          pivot = row;
          pivot_abs = v;
        }
      }
      if (pivot != pivots_[col]) break;  // the seed loop takes over here
      if (pivot_abs < kLuSingularRatio * scale_[col]) return false;
      min_ratio = std::min(min_ratio, pivot_abs / scale_[col]);
      if (pivot != col) {
        for (std::size_t i = at.swap; i < end.swap; ++i)
          std::swap(a[col * n + swap_[i]], a[pivot * n + swap_[i]]);
        std::swap(b[col], b[pivot]);
      }
      const double* u = &a[col * n];
      const double inv = 1.0 / u[col];
      for (std::size_t i = at.elim; i < end.elim; ++i) {
        const std::size_t row = elim_[i];
        double* r = &a[row * n];
        const double f = r[col] * inv;
        if (f == 0.0) continue;
        for (std::size_t k = at.upper; k < end.upper; ++k)
          r[upper_[k]] -= f * u[upper_[k]];
        b[row] -= f * b[col];
      }
    }
  }
  if (col < n) {
    // The pivots from `col` on are new: finish with the seed loop and
    // re-record. A singular system leaves pivots_ partial, so the next
    // call starts over from column 0.
    scheduled_ = false;
    if (!eliminate(a, b, n, scale_, col, min_ratio, pivots_.data()))
      return false;
    build();
  }
  report(min_ratio, stats);
  // Back-substitution over each row's recorded upper columns, ascending.
  // A skipped entry is +0 and the accumulator is never -0 (b holds no -0
  // and a difference is -0 only from -0), so acc - 0 * x keeps acc's bits
  // while x is finite. Once an entry of x is not, 0 * x is NaN, so the
  // seed loop finishes the rows left.
  std::size_t i = n;
  while (i > 0) {
    --i;
    const double* u = &a[i * n];
    double acc = b[i];
    for (std::size_t k = at_[i].upper; k < at_[i + 1].upper; ++k)
      acc -= u[upper_[k]] * b[upper_[k]];
    b[i] = acc / u[i];
    if (!std::isfinite(b[i])) break;
  }
  back_substitute(a, b, n, i);
  return true;
}

}  // namespace cryo::spice
