// Tabulated per-fin drain current for fast SPICE evaluation.
//
// Characterizing a full library evaluates the compact model tens of
// millions of times; a bilinear table over (vgs, vds) removes the
// transcendental math from the inner loop (~10x end-to-end speedup) while
// staying accurate in both critical regimes:
//   * the vgs direction is stored in log-current so the subthreshold
//     exponential interpolates exactly,
//   * the vds direction is normalized by f(vds) = vds / (vds + 20 mV),
//     which factors out the linear zero at vds = 0 so the triode region
//     interpolates accurately too.
//
// The table is built for the normalized NMOS-with-vds>=0 problem of one
// fin; FinFet handles polarity, drain/source swap, and the NFIN
// multiplier before the lookup.
#pragma once

#include <cmath>
#include <memory>
#include <vector>

#include "device/modelcard.hpp"

namespace cryo::device {

class FinFet;

class IdsCache {
 public:
  // Builds the table by sampling `reference` (a single-fin FinFet at its
  // temperature). Grid: vgs in [-0.35, 1.05], vds in [0, 1.05], 2.5 mV.
  explicit IdsCache(const FinFet& reference);

  // Per-fin current for the normalized problem; callers must pass
  // vds >= 0. Outside the grid the lookup clamps to the edge cells and
  // extrapolates, so callers check in_range() first (FinFet takes the
  // analytic path outside it). Defined here so FinFet's three lookups per
  // conductance evaluation inline.
  double ids_per_fin(double vgs, double vds) const {
    const double gi = (vgs - vgs_lo_) / step_;
    const double gj = vds / step_;
    const std::size_t i = static_cast<std::size_t>(gi < 0.0 ? 0.0 : gi);
    const std::size_t j = static_cast<std::size_t>(gj < 0.0 ? 0.0 : gj);
    const std::size_t i0 = i >= n_vgs_ - 1 ? n_vgs_ - 2 : i;
    const std::size_t j0 = j >= n_vds_ - 1 ? n_vds_ - 2 : j;
    const double ti = gi - static_cast<double>(i0);
    const double tj = gj - static_cast<double>(j0);
    const double v00 = logval_[i0 * n_vds_ + j0];
    const double v01 = logval_[i0 * n_vds_ + j0 + 1];
    const double v10 = logval_[(i0 + 1) * n_vds_ + j0];
    const double v11 = logval_[(i0 + 1) * n_vds_ + j0 + 1];
    const double lo = v00 * (1.0 - tj) + v01 * tj;
    const double hi = v10 * (1.0 - tj) + v11 * tj;
    const double logv = lo * (1.0 - ti) + hi * ti;
    return std::exp(logv) * f_vds(vds);
  }

  bool in_range(double vgs, double vds) const {
    return vgs >= vgs_lo_ && vgs <= vgs_hi_ && vds >= 0.0 && vds <= vds_hi_;
  }

 private:
  // vds normalization: removes the linear zero at vds = 0 from the stored
  // quantity so bilinear interpolation stays accurate in triode.
  static double f_vds(double vds) { return vds / (vds + 0.02); }

  double vgs_lo_ = -0.35;
  double vgs_hi_ = 1.05;
  double vds_hi_ = 1.05;
  double step_ = 2.5e-3;
  std::size_t n_vgs_ = 0;
  std::size_t n_vds_ = 0;
  std::vector<float> logval_;  // log(ids / f(vds) + eps), row-major [vgs][vds]
};

}  // namespace cryo::device
