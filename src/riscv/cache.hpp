// Set-associative LRU cache model for the ISS timing (hit/miss only; data
// always comes from the flat memory). The line size and the set count must
// be powers of two, so an access finds its set and tag by shift and mask.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace cryo::riscv {

struct CacheConfig {
  int size_bytes = 16 * 1024;
  int ways = 4;
  int line_bytes = 64;
};

class Cache {
 public:
  explicit Cache(CacheConfig config) : cfg_(config) {
    if (cfg_.size_bytes <= 0 || cfg_.ways <= 0 || cfg_.line_bytes <= 0)
      throw std::invalid_argument("Cache: bad configuration");
    const int sets = cfg_.size_bytes / (cfg_.ways * cfg_.line_bytes);
    if (sets <= 0) throw std::invalid_argument("Cache: zero sets");
    const auto line_bytes = static_cast<unsigned>(cfg_.line_bytes);
    const auto set_count = static_cast<unsigned>(sets);
    if (!std::has_single_bit(line_bytes) || !std::has_single_bit(set_count))
      throw std::invalid_argument(
          "Cache: line size and set count must be powers of two");
    line_shift_ = std::countr_zero(line_bytes);
    set_shift_ = std::countr_zero(set_count);
    set_mask_ = set_count - 1;
    tags_.assign(static_cast<std::size_t>(sets) * cfg_.ways, kInvalid);
    stamps_.assign(tags_.size(), 0);
  }

  // Returns true on hit; on miss the line is installed (LRU eviction).
  bool access(std::uint64_t addr) {
    const std::uint64_t line = addr >> line_shift_;
    ++clock_;
    // The previous access left its line in `last_way_` and nothing has
    // moved since, so repeating that line hits there without a scan.
    if (line == last_line_ && last_way_ != kNoWay) {
      stamps_[last_way_] = clock_;
      ++hits_;
      return true;
    }
    const auto set = static_cast<std::size_t>(line & set_mask_);
    const std::uint64_t tag = line >> set_shift_;
    const std::size_t base = set * static_cast<std::size_t>(cfg_.ways);
    last_line_ = line;
    for (int w = 0; w < cfg_.ways; ++w) {
      if (tags_[base + w] == tag) {
        stamps_[base + w] = clock_;
        ++hits_;
        last_way_ = base + w;
        return true;
      }
    }
    ++misses_;
    std::size_t victim = base;
    for (int w = 1; w < cfg_.ways; ++w)
      if (stamps_[base + w] < stamps_[victim]) victim = base + w;
    tags_[victim] = tag;
    stamps_[victim] = clock_;
    last_way_ = victim;
    return false;
  }

  void reset_stats() { hits_ = misses_ = 0; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double miss_rate() const {
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(misses_) /
                            static_cast<double>(total);
  }
  const CacheConfig& config() const { return cfg_; }

 private:
  static constexpr std::uint64_t kInvalid = ~0ull;
  static constexpr std::size_t kNoWay = ~std::size_t{0};
  CacheConfig cfg_;
  int line_shift_ = 0;
  int set_shift_ = 0;
  std::uint64_t set_mask_ = 0;
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> stamps_;
  std::uint64_t clock_ = 0;
  std::uint64_t last_line_ = 0;
  std::size_t last_way_ = kNoWay;  // until the first access
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace cryo::riscv
