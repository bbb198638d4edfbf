#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace cryo::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()))
    throw std::invalid_argument("Histogram: bounds must be ascending");
}

std::vector<double> Histogram::exponential_bounds(double lo, double factor,
                                                  int n) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(n));
  double b = lo;
  for (int i = 0; i < n; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
  double m = max_.load(std::memory_order_relaxed);
  while (v > m &&
         !max_.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
  }
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double max = max_value();
  const double target = q * static_cast<double>(n);
  double cum = 0.0;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    const double in_bucket = static_cast<double>(bucket(i));
    if (in_bucket == 0.0) continue;
    if (cum + in_bucket >= target) {
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = bounds_[i];
      const double frac = std::clamp((target - cum) / in_bucket, 0.0, 1.0);
      return std::min(lo + frac * (hi - lo), max);
    }
    cum += in_bucket;
  }
  // Target rank lives in the overflow bucket: the exact max is the only
  // finite statement we can make about it.
  return max;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

// Instruments live in node-stable maps so references handed out by the
// registry survive any later registration.
struct Registry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry::Impl& Registry::impl() const {
  // Leaked on purpose: pool worker threads and atexit trace writers may
  // touch instruments during process teardown, after static destructors.
  static Impl* impl = new Impl;
  return *impl;
}

Counter& Registry::counter(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  auto& slot = im.counters[std::string(name)];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  auto& slot = im.gauges[std::string(name)];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  auto& slot = im.histograms[std::string(name)];
  if (!slot) {
    if (bounds.empty())
      bounds = Histogram::exponential_bounds(1e-6, 4.0, 14);
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return *slot;
}

namespace {

// JSON number text; NaN and infinities have no JSON spelling, so they
// render as null.
std::string number_text(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

}  // namespace

std::string Registry::snapshot_json() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  std::string out = "{\n    \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : im.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "      \"" + name + "\": " + std::to_string(c->value());
  }
  out += first ? "},\n" : "\n    },\n";
  out += "    \"gauges\": {";
  first = true;
  for (const auto& [name, g] : im.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "      \"" + name + "\": " + number_text(g->value());
  }
  out += first ? "},\n" : "\n    },\n";
  out += "    \"histograms\": {";
  first = true;
  for (const auto& [name, h] : im.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "      \"" + name + "\": {\"count\": " +
           std::to_string(h->count()) + ", \"sum\": " +
           number_text(h->sum()) + ", \"max\": " + number_text(h->max_value()) +
           ", \"p50\": " + number_text(h->quantile(0.5)) +
           ", \"p95\": " + number_text(h->quantile(0.95)) +
           ", \"p99\": " + number_text(h->quantile(0.99)) + ", \"buckets\": [";
    for (std::size_t i = 0; i + 1 < h->bucket_count(); ++i) {
      if (i) out += ", ";
      out += "{\"le\": " + number_text(h->bound(i)) + ", \"count\": " +
             std::to_string(h->bucket(i)) + "}";
    }
    out += "], \"overflow\": " +
           std::to_string(h->bucket(h->bucket_count() - 1)) + "}";
  }
  out += first ? "}\n  }" : "\n    }\n  }";
  return out;
}

void Registry::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mutex);
  for (auto& [name, c] : im.counters) c->reset();
  for (auto& [name, g] : im.gauges) g->reset();
  for (auto& [name, h] : im.histograms) h->reset();
}

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace cryo::obs
