// Bounded, thread-safe LRU cache of per-corner flow state.
//
// A multi-corner sweep touches each corner's library + STA engine many
// times (timing, power, leakage) from many worker threads, while a large
// V/T grid must not hold every characterized library in memory at once.
// This cache gives both: get_or_build() returns a shared_ptr to the
// corner's state, building it at most once per residency, and evicts the
// least-recently-used corner past `capacity`. Evicted entries stay alive
// for as long as any caller still holds the shared_ptr, so references
// never dangle; the cache merely drops its own reference.
//
// Early values: a build may return an early value (a corner that can
// already answer some queries) and land the final one later, from any
// thread, through finish(). Callers that accept early values get it at
// once; every other caller waits for the final value. The slot stays
// pinned (never evicted) until the final value lands, so a corner is never
// built twice at once; if the late part fails, the slot leaves the cache
// and its waiters get the failure.
//
// Concurrency: the map/LRU bookkeeping is guarded by one mutex that is
// never held while building (builds run SPICE characterization and can
// take minutes); each slot carries its own mutex and condition variable,
// so distinct corners build fully in parallel while a second request for
// an in-flight corner waits only on that corner. A failed build erases
// the slot and hands its error to the callers already waiting on it; the
// next request retries instead of finding the error cached.
//
// Observability: <prefix>.hit / <prefix>.miss / <prefix>.evict counters
// and a <prefix>.size gauge ("miss" = the entry was not ready at lookup
// and this call had to build or wait for it).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/corner.hpp"
#include "obs/metrics.hpp"

namespace cryo::core {

template <typename State>
class CornerCache {
  struct Slot;

 public:
  // The slot a build fills; a build that returns an early value keeps a
  // copy and hands it to finish().
  class Ticket {
    friend class CornerCache;
    explicit Ticket(std::shared_ptr<Slot> slot) : slot_(std::move(slot)) {}
    std::shared_ptr<Slot> slot_;
  };

  // What a build returns. `early` marks a value that only callers
  // accepting early values may see; the build then owes exactly one
  // finish() with the final value or the failure.
  struct Built {
    std::shared_ptr<State> value;
    bool early = false;
  };
  using Build = std::function<Built(const Ticket&)>;

  CornerCache(std::size_t capacity, const std::string& metric_prefix)
      : capacity_(capacity == 0 ? 1 : capacity),
        hits_(obs::registry().counter(metric_prefix + ".hit")),
        misses_(obs::registry().counter(metric_prefix + ".miss")),
        evictions_(obs::registry().counter(metric_prefix + ".evict")),
        size_gauge_(obs::registry().gauge(metric_prefix + ".size")) {}

  // The corner's value, built by the first caller to miss. With
  // `accept_early` an early value will do; otherwise only the final one.
  std::shared_ptr<State> get_or_build(const Corner& corner, const Build& build,
                                      bool accept_early = false) {
    const std::shared_ptr<Slot> slot = find_or_insert(corner);
    std::unique_lock<std::mutex> lock(slot->mutex);
    const auto usable = [&] {
      return slot->value != nullptr && (accept_early || !slot->early);
    };
    (usable() ? hits_ : misses_).add(1);
    slot->changed.wait(lock, [&] { return usable() || !slot->building; });
    if (usable()) return slot->value;
    // A slot that failed while this call looked it up: report that
    // failure rather than build on a slot the cache no longer holds.
    if (slot->error) std::rethrow_exception(slot->error);

    slot->building = true;
    lock.unlock();
    const Ticket ticket(slot);
    Built built;
    try {
      built = build(ticket);
    } catch (...) {
      finish(ticket, nullptr, std::current_exception());
      throw;
    }
    if (!built.early) {
      finish(ticket, built.value);
      return built.value;
    }
    lock.lock();
    // The late part may already have finished (or failed); then the early
    // value still answers this call but is not stored.
    if (slot->building) {
      slot->value = built.value;
      slot->early = true;
      slot->changed.notify_all();
    }
    if (accept_early) return built.value;
    slot->changed.wait(lock, [&] { return !slot->building; });
    if (!slot->value) std::rethrow_exception(slot->error);
    return slot->value;
  }

  // Lands the final value of the build that holds `ticket`, or with a
  // null `value` its failure: the slot leaves the cache first, then its
  // waiters get `error`.
  void finish(const Ticket& ticket, std::shared_ptr<State> value,
              std::exception_ptr error = nullptr) {
    Slot& slot = *ticket.slot_;
    const bool ok = value != nullptr;
    if (!ok) erase(slot.corner, ticket.slot_);
    {
      std::lock_guard<std::mutex> lock(slot.mutex);
      slot.value = std::move(value);
      slot.early = false;
      slot.error = std::move(error);
      slot.building = false;
    }
    slot.changed.notify_all();
    if (ok) enforce_capacity(slot.corner);
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return slots_.size();
  }

 private:
  struct Slot {
    Corner corner;
    std::mutex mutex;  // guards the fields below
    std::condition_variable changed;
    bool building = false;  // a build, or its late part, is in flight
    bool early = false;     // `value` is a build's early value
    std::shared_ptr<State> value;
    std::exception_ptr error;  // set when the slot's build failed
  };

  std::shared_ptr<Slot> find_or_insert(const Corner& corner) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(corner);
    if (it != slots_.end()) {
      touch_locked(corner);
      return it->second;
    }
    auto slot = std::make_shared<Slot>();
    slot->corner = corner;
    slots_.emplace(corner, slot);
    lru_.push_front(corner);
    return slot;
  }

  // Move `corner` to the front of the LRU list. Caller holds mutex_.
  void touch_locked(const Corner& corner) {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (*it == corner) {
        lru_.splice(lru_.begin(), lru_, it);
        return;
      }
    }
  }

  // Remove `corner` if it still maps to `slot` (a failed build must not
  // erase a slot someone else re-created meanwhile).
  void erase(const Corner& corner, const std::shared_ptr<Slot>& slot) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(corner);
    if (it == slots_.end() || it->second != slot) return;
    slots_.erase(it);
    lru_.remove(corner);
    size_gauge_.set(static_cast<double>(slots_.size()));
  }

  // Evict least-recently-used entries until size <= capacity, skipping
  // `keep` and every slot whose build is in flight (its early value
  // included). New builders for an evicted corner cannot race us here:
  // they must pass through mutex_ (held) to find the slot.
  void enforce_capacity(const Corner& keep) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto pinned = [](Slot& slot) {
      std::lock_guard<std::mutex> slot_lock(slot.mutex);
      return slot.building;
    };
    bool progress = true;
    while (slots_.size() > capacity_ && progress) {
      progress = false;
      for (auto it = std::prev(lru_.end());; --it) {
        const Corner victim = *it;
        auto found = slots_.find(victim);
        if (victim != keep && found != slots_.end() &&
            !pinned(*found->second)) {
          slots_.erase(found);
          lru_.erase(it);
          evictions_.add(1);
          progress = true;
          break;
        }
        if (it == lru_.begin()) break;
      }
    }
    size_gauge_.set(static_cast<double>(slots_.size()));
  }

  const std::size_t capacity_;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& evictions_;
  obs::Gauge& size_gauge_;

  mutable std::mutex mutex_;
  std::unordered_map<Corner, std::shared_ptr<Slot>> slots_;
  std::list<Corner> lru_;  // front = most recently used
};

}  // namespace cryo::core
