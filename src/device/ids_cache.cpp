#include "device/ids_cache.hpp"

#include <cmath>

#include "device/finfet.hpp"

namespace cryo::device {
namespace {

constexpr double kEps = 1e-30;

}  // namespace

IdsCache::IdsCache(const FinFet& reference) {
  n_vgs_ = static_cast<std::size_t>((vgs_hi_ - vgs_lo_) / step_) + 2;
  n_vds_ = static_cast<std::size_t>(vds_hi_ / step_) + 2;
  logval_.resize(n_vgs_ * n_vds_);
  for (std::size_t i = 0; i < n_vgs_; ++i) {
    const double vgs = vgs_lo_ + step_ * static_cast<double>(i);
    for (std::size_t j = 0; j < n_vds_; ++j) {
      // Sample the vds = 0 column slightly off zero where ids/f(vds) has a
      // well-defined value.
      const double vds =
          j == 0 ? 0.25e-3 : step_ * static_cast<double>(j);
      const double ids = reference.ids_per_fin_raw(vgs, vds);
      logval_[i * n_vds_ + j] =
          static_cast<float>(std::log(ids / f_vds(vds) + kEps));
    }
  }
}

}  // namespace cryo::device
