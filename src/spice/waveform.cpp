#include "spice/waveform.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace cryo::spice {

Waveform Waveform::pulse(double v0, double v1, double delay, double rise,
                         double fall, double width, double period) {
  // value() wraps time modulo period, so every breakpoint of one pulse
  // must fit inside a single period. A shorter period would silently
  // truncate the fall tail and next_breakpoint() would emit phantom
  // edges from the wrapped copy — reject it up front.
  if (period > 0.0 && period < rise + width + fall)
    throw std::invalid_argument(
        "Waveform::pulse: period " + std::to_string(period) +
        " is shorter than rise + width + fall = " +
        std::to_string(rise + width + fall));
  // One period worth of breakpoints; value() wraps time modulo period.
  Waveform w({{0.0, v0},
              {delay, v0},
              {delay + rise, v1},
              {delay + rise + width, v1},
              {delay + rise + width + fall, v0}});
  w.period_ = period;
  return w;
}

double Waveform::value(double t) const {
  if (period_ > 0.0 && t > points_.front().first) {
    const double t0 = points_[1].first;  // delay
    if (t > t0) {
      double phase = std::fmod(t - t0, period_);
      // The fold-back inherits ulp(t), which grows with t while the
      // corners do not; unsnapped, sampling at an exact period multiple
      // lands a hair past a corner and reads a sliver of the next ramp.
      // Snap to the nearest corner within a ppb of the period.
      const double snap = 1e-9 * period_;
      for (const auto& [bt, bv] : points_) {
        if (std::abs(t0 + phase - bt) <= snap) {
          phase = bt - t0;
          break;
        }
      }
      t = t0 + phase;
    }
  }
  if (t <= points_.front().first) return points_.front().second;
  if (t >= points_.back().first) return points_.back().second;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (t <= points_[i].first) {
      const auto& [t0, v0] = points_[i - 1];
      const auto& [t1, v1] = points_[i];
      if (t1 <= t0) return v1;
      return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
    }
  }
  return points_.back().second;
}

double Waveform::next_breakpoint(double t) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (period_ > 0.0) {
    const double t0 = points_[1].first;
    if (t < t0) return t0;
    const double phase = std::fmod(t - t0, period_);
    const double base = t - phase;
    for (std::size_t i = 1; i < points_.size(); ++i) {
      const double bp = base + (points_[i].first - t0);
      if (bp > t + 1e-18) return bp;
    }
    return base + period_;
  }
  for (const auto& [bt, bv] : points_)
    if (bt > t + 1e-18) return bt;
  return kInf;
}

bool Waveform::agrees_until(const Waveform& other, double t) const {
  using Point = std::pair<double, double>;
  const auto same = [](const Point& a, const Point& b) {
    return std::bit_cast<std::uint64_t>(a.first) ==
               std::bit_cast<std::uint64_t>(b.first) &&
           std::bit_cast<std::uint64_t>(a.second) ==
               std::bit_cast<std::uint64_t>(b.second);
  };
  const std::vector<Point>& p = points_;
  const std::vector<Point>& q = other.points_;
  if (std::bit_cast<std::uint64_t>(period_) !=
      std::bit_cast<std::uint64_t>(other.period_))
    return false;
  if (std::equal(p.begin(), p.end(), q.begin(), q.end(), same)) return true;
  if (period_ > 0.0) return false;
  // value() and next_breakpoint() scan the points in order, so up to t
  // they read the leading points at or before t and, as the far end of
  // the segment spanning t, the first point after it.
  const auto ascending = [](const std::vector<Point>& v) {
    return std::is_sorted(v.begin(), v.end(), [](const Point& a,
                                                 const Point& b) {
      return a.first < b.first;
    });
  };
  const auto head = [t](const std::vector<Point>& v) {
    return static_cast<std::size_t>(
        std::find_if(v.begin(), v.end(),
                     [t](const Point& pt) { return pt.first > t; }) -
        v.begin());
  };
  const std::size_t n = head(p);
  if (!ascending(p) || !ascending(q) || n == 0 || n != head(q) ||
      n == p.size() || n == q.size() ||
      !std::equal(p.begin(), p.begin() + static_cast<std::ptrdiff_t>(n),
                  q.begin(), same))
    return false;
  const Point& last = p[n - 1];
  return last.first == t ||
         (p[n].second == last.second && q[n].second == last.second);
}

bool Waveform::has_point_at(double t) const {
  if (period_ > 0.0) return false;
  return std::any_of(points_.begin(), points_.end(),
                     [t](const auto& pt) { return pt.first == t; });
}

double Trace::at(double t) const {
  if (time.empty()) return 0.0;
  if (t <= time.front()) return value.front();
  if (t >= time.back()) return value.back();
  const auto it = std::upper_bound(time.begin(), time.end(), t);
  const std::size_t hi = static_cast<std::size_t>(it - time.begin());
  const std::size_t lo = hi - 1;
  const double span = time[hi] - time[lo];
  if (span <= 0.0) return value[hi];
  const double f = (t - time[lo]) / span;
  return value[lo] + (value[hi] - value[lo]) * f;
}

double Trace::cross(double level, bool rising, double after) const {
  // Half-open interval semantics: a sample sitting exactly on the level
  // counts as the crossing entry point, so fast-slew traces whose first
  // sample lands on the threshold are not silently skipped. The segment
  // must still move in the requested direction (v1 != v0 guaranteed).
  for (std::size_t i = 1; i < time.size(); ++i) {
    if (time[i] < after) continue;
    const double v0 = value[i - 1], v1 = value[i];
    const bool hit = rising ? (v0 <= level && v1 >= level && v1 > v0)
                            : (v0 >= level && v1 <= level && v1 < v0);
    if (hit) {
      const double f = (level - v0) / (v1 - v0);
      return time[i - 1] + f * (time[i] - time[i - 1]);
    }
  }
  return -1.0;
}

double Trace::transition_time(double v0, double v1, double lo_frac,
                              double hi_frac) const {
  const bool rising = v1 > v0;
  const double swing = v1 - v0;
  const double lo_level = v0 + lo_frac * swing;
  const double hi_level = v0 + hi_frac * swing;
  const double t_lo = cross(lo_level, rising);
  const double t_hi = cross(hi_level, rising, std::max(t_lo, 0.0));
  if (t_lo < 0.0 || t_hi < 0.0) return -1.0;
  return t_hi - t_lo;
}

double Trace::integral() const {
  double acc = 0.0;
  for (std::size_t i = 1; i < time.size(); ++i)
    acc += 0.5 * (value[i] + value[i - 1]) * (time[i] - time[i - 1]);
  return acc;
}

}  // namespace cryo::spice
