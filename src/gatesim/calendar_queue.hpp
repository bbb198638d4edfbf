// Calendar queue: the O(1)-amortized pending-event set of the
// event-driven gate simulator (R. Brown, CACM 1988).
//
// Events live in an array of time buckets ("days"); bucket i of width w
// serves every time t with (t / w) % nbuckets == i, so one sweep over the
// array covers one "year" of nbuckets * w ticks and the structure wraps
// around indefinitely. pop() resumes the sweep where the last pop left
// off, which makes both insert and pop O(1) amortized as long as the
// bucket width tracks the mean inter-event gap; the queue resizes itself
// (doubling/halving the day count and recalibrating the width from the
// live event population) whenever the load factor drifts. A rebuild
// reuses the bucket storage of earlier ones, so a queue that swells and
// drains every clock edge stops allocating once it has seen its peak.
//
// Determinism contract: pops are strictly ordered by (time, sequence)
// where `sequence` is a monotonic push counter, so equal-time events pop
// in push order. Nothing in the resize heuristics consults wall-clock
// time or randomness — two runs that push the same (time, payload)
// stream observe byte-identical pop streams. Pushing a time earlier than
// the last popped time is a contract violation (the simulator only ever
// schedules at or after "now"); such events are clamped to the floor so
// they still pop, just without breaking the sweep invariant.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace cryo::gatesim {

template <typename Payload>
class CalendarQueue {
 public:
  struct Entry {
    std::uint64_t time = 0;  // [ticks]
    std::uint64_t seq = 0;   // monotonic push counter: the tie-break
    Payload payload{};
  };

  explicit CalendarQueue(std::size_t initial_buckets = kMinBuckets,
                         std::uint64_t initial_width = 1024)
      : width_shift_(shift_for(initial_width)) {
    buckets_.resize(round_up_pow2(initial_buckets));
    mask_ = buckets_.size() - 1;
    bucket_top_ = width();
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  // Number of full rebuilds (grow + shrink) since construction.
  std::uint64_t resizes() const { return resizes_; }
  std::size_t bucket_count() const { return mask_ + 1; }
  std::uint64_t last_popped_time() const { return floor_; }

  // The sequence number the next push will receive (exposed so callers
  // can pre-compute the identity of an event they are about to push).
  std::uint64_t next_seq() const { return seq_; }

  std::uint64_t push(std::uint64_t time, Payload payload) {
    if (time < floor_) time = floor_;  // see determinism contract
    const std::uint64_t seq = seq_++;
    insert(Entry{time, seq, std::move(payload)});
    ++size_;
    if (size_ > 2 * bucket_count()) rebuild(bucket_count() * 2);
    return seq;
  }

  // Pops the (time, seq)-minimal event. Precondition: !empty().
  Entry pop() {
    // Sweep at most one full year from the cursor; each non-empty bucket
    // whose minimum falls inside the current day yields immediately.
    for (std::size_t scanned = 0; scanned <= mask_; ++scanned) {
      std::vector<Entry>& b = buckets_[cursor_];
      if (!b.empty() && b.back().time < bucket_top_) return take(b);
      cursor_ = (cursor_ + 1) & mask_;
      bucket_top_ += width();
    }
    // A full year was empty of due events: the next event is far in the
    // future (or sits in a prior day of a crowded bucket). Find the
    // global minimum directly and jump the cursor to its day.
    std::size_t best = bucket_count();
    for (std::size_t i = 0; i <= mask_; ++i) {
      const std::vector<Entry>& b = buckets_[i];
      if (b.empty()) continue;
      if (best == bucket_count() || precedes(b.back(), buckets_[best].back()))
        best = i;
    }
    const std::uint64_t t = buckets_[best].back().time;
    cursor_ = day_of(t);
    bucket_top_ = ((t >> width_shift_) + 1) << width_shift_;
    return take(buckets_[best]);
  }

 private:
  static constexpr std::size_t kMinBuckets = 16;

  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = kMinBuckets;
    while (p < n) p *= 2;
    return p;
  }

  static bool precedes(const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  // Days are a power of two of ticks wide (the requested width rounded
  // down), so finding an event's day is a shift, not a division.
  static int shift_for(std::uint64_t width) {
    return width <= 1 ? 0 : std::bit_width(width) - 1;
  }
  std::uint64_t width() const { return std::uint64_t{1} << width_shift_; }

  std::size_t day_of(std::uint64_t time) const {
    return static_cast<std::size_t>(time >> width_shift_) & mask_;
  }

  // Buckets are kept sorted descending by (time, seq) so the bucket
  // minimum is back() and removal is an O(1) pop_back.
  void insert(Entry e) {
    std::vector<Entry>& b = buckets_[day_of(e.time)];
    auto it = std::upper_bound(
        b.begin(), b.end(), e,
        [](const Entry& x, const Entry& y) { return precedes(y, x); });
    b.insert(it, std::move(e));
  }

  Entry take(std::vector<Entry>& b) {
    Entry e = std::move(b.back());
    b.pop_back();
    --size_;
    floor_ = e.time;
    if (bucket_count() > kMinBuckets && size_ < bucket_count() / 2)
      rebuild(bucket_count() / 2);
    return e;
  }

  // Only buckets [0, bucket_count()) are in use; the ones past it keep
  // their capacity for the next grow.
  void rebuild(std::size_t new_bucket_count) {
    std::vector<Entry>& all = rebuild_scratch_;
    all.clear();
    std::uint64_t tmin = ~0ull, tmax = 0;
    for (std::size_t i = 0; i <= mask_; ++i) {
      for (Entry& e : buckets_[i]) {
        tmin = std::min(tmin, e.time);
        tmax = std::max(tmax, e.time);
        all.push_back(std::move(e));
      }
      buckets_[i].clear();
    }
    const std::size_t count = round_up_pow2(new_bucket_count);
    if (buckets_.size() < count) buckets_.resize(count);
    mask_ = count - 1;
    // Recalibrate the day width to ~2x the mean inter-event gap of the
    // live population (Brown's rule of thumb), so a year spans the whole
    // window and a day holds O(1) events.
    if (!all.empty() && tmax > tmin) {
      const std::uint64_t span = tmax - tmin;
      width_shift_ =
          shift_for(2 * span / static_cast<std::uint64_t>(all.size()));
    }
    for (Entry& e : all) insert(std::move(e));
    cursor_ = day_of(floor_);
    bucket_top_ = ((floor_ >> width_shift_) + 1) << width_shift_;
    ++resizes_;
  }

  std::vector<std::vector<Entry>> buckets_;
  std::vector<Entry> rebuild_scratch_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::uint64_t seq_ = 0;
  int width_shift_ = 0;  // a day spans 2^width_shift_ ticks
  std::size_t cursor_ = 0;          // bucket the sweep is standing on
  std::uint64_t bucket_top_ = 0;    // exclusive time bound of that day
  std::uint64_t floor_ = 0;         // last popped time
  std::uint64_t resizes_ = 0;
};

}  // namespace cryo::gatesim
