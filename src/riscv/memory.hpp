// Sparse byte-addressable memory for the instruction-set simulator.
//
// 4 KiB pages live in a hash map and are allocated by the first write to
// them; an unmapped page reads as zero and allocates nothing. A small
// direct-mapped page cache sits in front of the map, so the common access
// (a word inside a recently used page) costs one compare and one
// fixed-width copy instead of a map lookup per byte; only an access that
// straddles two pages takes the byte loop.
//
// The page cache is filled by reads, so it is `mutable`: a const Memory
// is not safe for concurrent readers. A copy owns its own pages and
// starts with an empty cache, so it never aliases the source (a move is
// a copy too).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

namespace cryo::riscv {

class Memory {
 public:
  Memory() = default;
  Memory(const Memory& other) : pages_(other.pages_) {}
  Memory& operator=(const Memory& other) {
    pages_ = other.pages_;
    slots_.fill({});
    return *this;
  }

  std::uint8_t read8(std::uint64_t addr) const {
    const std::uint8_t* p = find_page(addr >> kPageShift);
    return p ? p[addr & kPageMask] : 0;
  }
  void write8(std::uint64_t addr, std::uint8_t value) {
    writable_page(addr >> kPageShift)[addr & kPageMask] = value;
  }

  // Little-endian access of 1, 2, 4 or 8 bytes.
  std::uint64_t read(std::uint64_t addr, int bytes) const {
    switch (bytes) {
      case 1: return read8(addr);
      case 2: return read_le<std::uint16_t>(addr);
      case 4: return read_le<std::uint32_t>(addr);
      default: return read_le<std::uint64_t>(addr);
    }
  }
  void write(std::uint64_t addr, std::uint64_t value, int bytes) {
    switch (bytes) {
      case 1: write8(addr, static_cast<std::uint8_t>(value)); break;
      case 2: write_le(addr, static_cast<std::uint16_t>(value)); break;
      case 4: write_le(addr, static_cast<std::uint32_t>(value)); break;
      default: write_le(addr, value); break;
    }
  }

  std::uint32_t read32(std::uint64_t addr) const {
    return read_le<std::uint32_t>(addr);
  }
  std::uint64_t read64(std::uint64_t addr) const {
    return read_le<std::uint64_t>(addr);
  }
  void write32(std::uint64_t addr, std::uint32_t v) { write_le(addr, v); }
  void write64(std::uint64_t addr, std::uint64_t v) { write_le(addr, v); }

  double read_double(std::uint64_t addr) const {
    return std::bit_cast<double>(read64(addr));
  }
  void write_double(std::uint64_t addr, double d) {
    write64(addr, std::bit_cast<std::uint64_t>(d));
  }

  // Pages allocated so far (reads never allocate).
  std::size_t page_count() const { return pages_.size(); }

 private:
  static_assert(std::endian::native == std::endian::little,
                "word accesses copy host words as little-endian memory");
  static constexpr int kPageShift = 12;
  static constexpr std::uint64_t kPageSize = 1ull << kPageShift;
  static constexpr std::uint64_t kPageMask = kPageSize - 1;
  static constexpr int kSlotBits = 6;
  static constexpr std::uint64_t kNoPage = ~0ull;  // above any page number

  struct Slot {
    std::uint64_t page = kNoPage;
    std::uint8_t* data = nullptr;
  };

  // Fibonacci hashing spreads the kernels' power-of-two-aligned regions
  // (code, tables, measurement stream) over distinct slots.
  static std::size_t slot_of(std::uint64_t page) {
    return static_cast<std::size_t>((page * 0x9E3779B97F4A7C15ull) >>
                                    (64 - kSlotBits));
  }

  // The page's bytes, or nullptr while it is unmapped (nothing cached).
  const std::uint8_t* find_page(std::uint64_t page) const {
    Slot& s = slots_[slot_of(page)];
    if (s.page == page) return s.data;
    const auto it = pages_.find(page);
    if (it == pages_.end()) return nullptr;
    // The slot also serves writes; the page itself is never const.
    s = Slot{page, const_cast<std::uint8_t*>(it->second.data())};
    return s.data;
  }
  // The page's bytes, allocated zeroed on first use.
  std::uint8_t* writable_page(std::uint64_t page) {
    Slot& s = slots_[slot_of(page)];
    if (s.page == page) return s.data;
    auto& bytes = pages_[page];
    if (bytes.empty()) bytes.assign(kPageSize, 0);
    s = Slot{page, bytes.data()};
    return s.data;
  }

  template <typename Word>
  Word read_le(std::uint64_t addr) const {
    const std::uint64_t off = addr & kPageMask;
    if (off + sizeof(Word) <= kPageSize) {
      const std::uint8_t* p = find_page(addr >> kPageShift);
      Word w = 0;
      if (p) std::memcpy(&w, p + off, sizeof(Word));
      return w;
    }
    Word w = 0;  // straddles a page boundary
    for (std::size_t i = 0; i < sizeof(Word); ++i)
      w |= static_cast<Word>(static_cast<Word>(read8(addr + i)) << (8 * i));
    return w;
  }
  template <typename Word>
  void write_le(std::uint64_t addr, Word value) {
    const std::uint64_t off = addr & kPageMask;
    if (off + sizeof(Word) <= kPageSize) {
      std::memcpy(writable_page(addr >> kPageShift) + off, &value,
                  sizeof(Word));
      return;
    }
    for (std::size_t i = 0; i < sizeof(Word); ++i)
      write8(addr + i, static_cast<std::uint8_t>(value >> (8 * i)));
  }

  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> pages_;
  mutable std::array<Slot, std::size_t{1} << kSlotBits> slots_{};
};

}  // namespace cryo::riscv
