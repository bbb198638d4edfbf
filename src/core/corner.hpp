// Operating corner: the (vdd, temperature) point every analysis is keyed
// by. The paper's whole argument is a corner comparison (300 K vs 10 K,
// Tables 1-3; VDD scaling in the power study), so the corner is a
// first-class value shared by the flow, the sweep engine, and the Liberty
// artifact store instead of a bare `double temperature` threaded through
// scalar overloads.
//
// Semantics:
//  - Equality and hashing use the numeric fields only (exact double
//    comparison). `name` is a cosmetic label for artifacts/obs output;
//    two corners with the same (vdd, temperature) are the same corner and
//    share one cache entry whatever their names say.
//  - key() is the canonical, stable string form ("v0.7_t300") used in
//    artifact manifests and obs labels; it round-trips doubles via
//    shortest-form std::to_chars, so equal corners always render equal
//    keys.
//  - slug() is the filesystem-safe form of the label used in artifact
//    file names ('.' -> 'p', '-' -> 'm').
#pragma once

#include <charconv>
#include <cstddef>
#include <functional>
#include <string>

namespace cryo::core {

namespace corner_detail {

// Shortest round-trip rendering of a double ("0.7", not
// "0.69999999999999996"); equal doubles render identically.
inline std::string shortest(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

inline std::string sanitize(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '_') {
      out += c;
    } else if (c == '.') {
      out += 'p';
    } else if (c == '-') {
      out += 'm';
    } else {
      out += '_';
    }
  }
  return out;
}

}  // namespace corner_detail

struct Corner {
  double vdd = 0.7;            // [V]
  double temperature = 300.0;  // [K]
  // Optional human label ("300k", "slow_cold"). Excluded from equality
  // and hashing; when set it names the Liberty artifact file.
  std::string name;

  // The paper's two canonical corners at a given supply.
  static Corner room(double vdd = 0.7) { return {vdd, 300.0, "300k"}; }
  static Corner cryo(double vdd = 0.7) { return {vdd, 10.0, "10k"}; }

  // Canonical stable string form, e.g. "v0.7_t300". Used in manifests and
  // obs labels; independent of `name`.
  std::string key() const {
    return "v" + corner_detail::shortest(vdd) + "_t" +
           corner_detail::shortest(temperature);
  }

  // Human label: the name when set, else the canonical key.
  std::string label() const { return name.empty() ? key() : name; }

  // Filesystem-safe label for artifact file names ("300k", "v0p7_t300").
  std::string slug() const { return corner_detail::sanitize(label()); }

  friend bool operator==(const Corner& a, const Corner& b) {
    return a.vdd == b.vdd && a.temperature == b.temperature;
  }
  friend bool operator!=(const Corner& a, const Corner& b) {
    return !(a == b);
  }
  // Ordering for sorted containers and stable report output: by
  // temperature, then supply.
  friend bool operator<(const Corner& a, const Corner& b) {
    if (a.temperature != b.temperature) return a.temperature < b.temperature;
    return a.vdd < b.vdd;
  }
};

}  // namespace cryo::core

template <>
struct std::hash<cryo::core::Corner> {
  std::size_t operator()(const cryo::core::Corner& c) const noexcept {
    const std::size_t h1 = std::hash<double>()(c.vdd);
    const std::size_t h2 = std::hash<double>()(c.temperature);
    return h1 ^ (h2 + 0x9e3779b97f4a7c15ULL + (h1 << 6) + (h1 >> 2));
  }
};
