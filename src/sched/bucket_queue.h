// sched::BucketQueue: the priority frontier behind asynchronous execution.
//
// A bucket queue in the delta-stepping tradition: vertices are keyed by a
// small integer priority (quantized residual, tentative distance, residual
// degree — lower is more urgent), and the consumer always drains the lowest
// non-empty bucket. Three properties make it fit the async EdgeMap loop:
//
//  * Lazy decrease. There is no decrease-key; improving a vertex's
//    priority appends a second entry and CAS-lowers the per-vertex
//    recorded priority. Pop claims an entry only when its priority still
//    matches the record (claim = CAS record -> kNotQueued), so stale
//    entries are dropped for free and each queued vertex is delivered
//    exactly once per enqueue generation.
//  * Overflow bucket. Priorities are unbounded (residual degrees, long
//    distances); everything at or beyond the physical bucket range parks
//    in the last slot. When the regular slots drain, the base advances to
//    the minimum live priority and the overflow redistributes — the
//    classic sliding-window bucket structure.
//  * Thread-safe push. The AsyncRunner files a round's updated vertices
//    from its own thread between rounds, but push may race pop from any
//    thread: such a push may be observed one pop later, never lost, since
//    the recorded priority is the source of truth and entries are only
//    dropped when provably stale.
//  * Out-of-order claims. claim(v) takes a queued vertex regardless of its
//    bucket (the AsyncRunner's page coalescing); its entry stays behind as
//    a stale one, and compact() drops stale and duplicate entries so the
//    queue's memory stays bounded by the live vertex count.
//
// The consumer side (pop_bucket / claim / compact) is single-threaded by
// contract — the AsyncRunner round loop.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "util/common.h"
#include "util/spinlock.h"

namespace blaze::sched {

/// Priority levels are plain integers; lower = more urgent.
using priority_t = std::uint32_t;

class BucketQueue {
 public:
  /// Recorded priority of a vertex that is not currently queued. Also the
  /// largest representable priority plus one: pushes clamp to kNotQueued-1.
  static constexpr priority_t kNotQueued =
      std::numeric_limits<priority_t>::max();

  /// `universe` = vertex id space; `num_buckets` physical slots, the last
  /// of which is the overflow bucket (minimum 2 slots).
  explicit BucketQueue(vertex_t universe, std::uint32_t num_buckets = 64)
      : universe_(universe),
        num_buckets_(std::max<std::uint32_t>(2, num_buckets)),
        buckets_(num_buckets_),
        pri_(std::make_unique<std::atomic<priority_t>[]>(
            std::max<vertex_t>(universe, 1))) {
    for (vertex_t v = 0; v < universe_; ++v) {
      pri_[v].store(kNotQueued, std::memory_order_relaxed);
    }
  }

  vertex_t universe() const { return universe_; }
  std::uint32_t num_buckets() const { return num_buckets_; }

  /// Enqueues `v` at `priority`, or improves its priority if already
  /// queued at a worse (larger) one. Pushes at an equal-or-worse priority
  /// are ignored — the queued entry already covers them. Thread-safe, may
  /// race pop_bucket. Returns true if the queue state changed.
  bool push(vertex_t v, priority_t priority) {
    BLAZE_CHECK(v < universe_, "BucketQueue::push vertex out of range");
    if (priority == kNotQueued) priority = kNotQueued - 1;
    priority_t cur = pri_[v].load(std::memory_order_relaxed);
    for (;;) {
      if (cur != kNotQueued && cur <= priority) return false;
      if (pri_[v].compare_exchange_weak(cur, priority,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        break;
      }
    }
    if (cur == kNotQueued) {
      live_.fetch_add(1, std::memory_order_relaxed);
    }
    Bucket& b = buckets_[slot_of(priority)];
    {
      std::lock_guard<Spinlock> guard(b.lock);
      b.items.push_back(Entry{v, priority});
    }
    pushes_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Drains the lowest non-empty bucket into `out` (appended), claiming
  /// each live vertex (its record resets to kNotQueued, so a later push
  /// re-enqueues it). Returns the minimum priority among the claimed
  /// vertices, or nullopt when the queue is empty. Single consumer.
  std::optional<priority_t> pop_bucket(std::vector<vertex_t>& out) {
    for (;;) {
      priority_t level = kNotQueued;
      for (std::uint32_t s = 0; s + 1 < num_buckets_; ++s) {
        if (drain_slot(s, out, &level)) return level;
      }
      // Regular slots are all empty (or all-stale): fall back to the
      // overflow bucket. Slide the base to the minimum live priority and
      // redistribute; entries still past the new window stay parked.
      if (!redistribute_overflow()) {
        // Overflow held nothing live either. A racing push may have
        // landed in a regular slot between our scan and now; live_ > 0
        // tells us to rescan, otherwise the queue is drained.
        if (live_.load(std::memory_order_acquire) == 0) return std::nullopt;
      }
    }
  }

  /// Claims `v` out of priority order: if it is queued, its record resets
  /// to kNotQueued (a later push re-enqueues it) and the call returns
  /// true; its bucket entry is left for compact() or pop to drop. Single
  /// consumer, like pop_bucket.
  bool claim(vertex_t v) {
    priority_t cur = pri_[v].load(std::memory_order_relaxed);
    while (cur != kNotQueued) {
      if (pri_[v].compare_exchange_weak(cur, kNotQueued,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        live_.fetch_sub(1, std::memory_order_release);
        claims_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  /// Drops every stale entry and every duplicate of a live one, so the
  /// buckets hold exactly one entry per queued vertex afterwards (absent
  /// concurrent pushes) and release the memory the dropped entries held.
  /// Single consumer; pushes may race it and are kept.
  void compact() {
    if (seen_.empty()) seen_.assign(universe_ / 64 + 1, 0);
    for (Bucket& b : buckets_) {
      std::lock_guard<Spinlock> guard(b.lock);
      std::size_t kept = 0;
      for (const Entry& e : b.items) {
        std::uint64_t& word = seen_[e.vertex / 64];
        const std::uint64_t bit = std::uint64_t{1} << (e.vertex % 64);
        if ((word & bit) == 0 &&
            pri_[e.vertex].load(std::memory_order_relaxed) == e.priority) {
          word |= bit;
          b.items[kept++] = e;
        } else {
          dropped_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      b.items.resize(kept);
      if (b.items.capacity() > 2 * kept + 64) b.items.shrink_to_fit();
    }
    for (Bucket& b : buckets_) {
      std::lock_guard<Spinlock> guard(b.lock);
      for (const Entry& e : b.items) seen_[e.vertex / 64] = 0;
    }
  }

  /// Entries held across all buckets, live or stale (the queue's memory
  /// footprint in entries).
  std::size_t entries() const {
    std::size_t n = 0;
    for (const Bucket& b : buckets_) {
      std::lock_guard<Spinlock> guard(b.lock);
      n += b.items.size();
    }
    return n;
  }

  /// Current recorded priority of `v` (kNotQueued when not enqueued).
  priority_t priority_of(vertex_t v) const {
    return pri_[v].load(std::memory_order_relaxed);
  }

  /// Number of distinct queued vertices (exact between rounds, a snapshot
  /// under concurrent pushes).
  std::size_t size() const {
    return live_.load(std::memory_order_relaxed);
  }
  bool empty() const { return size() == 0; }

  /// Total push() calls that changed queue state.
  std::uint64_t pushes() const {
    return pushes_.load(std::memory_order_relaxed);
  }
  /// Vertices taken by claim().
  std::uint64_t claims() const {
    return claims_.load(std::memory_order_relaxed);
  }
  /// Entries discarded because a fresher entry superseded them, not
  /// counting the entry each claim() leaves behind. Exact once compact()
  /// has run or the queue has drained; then deliveries + claims() +
  /// stale_drops() + size() == pushes().
  std::uint64_t stale_drops() const {
    const std::uint64_t dropped = dropped_.load(std::memory_order_relaxed);
    const std::uint64_t claimed = claims();
    return dropped > claimed ? dropped - claimed : 0;
  }
  /// Current window base (minimum priority the regular slots can hold).
  priority_t base() const { return base_.load(std::memory_order_relaxed); }

  /// Empties the queue and resets all recorded priorities.
  void clear() {
    for (auto& b : buckets_) {
      std::lock_guard<Spinlock> guard(b.lock);
      b.items.clear();
    }
    for (vertex_t v = 0; v < universe_; ++v) {
      pri_[v].store(kNotQueued, std::memory_order_relaxed);
    }
    live_.store(0, std::memory_order_relaxed);
    base_.store(0, std::memory_order_relaxed);
  }

 private:
  struct Entry {
    vertex_t vertex;
    priority_t priority;
  };
  struct alignas(kCacheLineSize) Bucket {
    mutable Spinlock lock;
    std::vector<Entry> items;
  };

  /// Physical slot for a priority under the current base. Priorities below
  /// the base (a push raced a window slide) clamp to slot 0 — they are
  /// still popped first, which is the only ordering monotone algorithms
  /// need. Priorities past the window park in the overflow slot.
  std::uint32_t slot_of(priority_t p) const {
    const priority_t base = base_.load(std::memory_order_relaxed);
    const priority_t rel = p < base ? 0 : p - base;
    return static_cast<std::uint32_t>(
        std::min<priority_t>(rel, num_buckets_ - 1));
  }

  /// Takes slot `s` and claims its live entries into `out`. Returns true
  /// if anything was claimed; `*level` receives the minimum claimed
  /// priority.
  bool drain_slot(std::uint32_t s, std::vector<vertex_t>& out,
                  priority_t* level) {
    std::vector<Entry> items;
    {
      Bucket& b = buckets_[s];
      std::lock_guard<Spinlock> guard(b.lock);
      items.swap(b.items);
    }
    const std::size_t before = out.size();
    for (const Entry& e : items) {
      priority_t expect = e.priority;
      if (pri_[e.vertex].compare_exchange_strong(
              expect, kNotQueued, std::memory_order_acq_rel,
              std::memory_order_relaxed)) {
        out.push_back(e.vertex);
        *level = std::min(*level, e.priority);
        live_.fetch_sub(1, std::memory_order_release);
      } else {
        dropped_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return out.size() != before;
  }

  /// Slides the window base to the minimum live priority in the overflow
  /// bucket and re-files its entries. Returns true if any live entry was
  /// re-filed (a subsequent regular-slot scan will find it).
  bool redistribute_overflow() {
    const std::uint32_t ovf = num_buckets_ - 1;
    std::vector<Entry> items;
    {
      Bucket& b = buckets_[ovf];
      std::lock_guard<Spinlock> guard(b.lock);
      items.swap(b.items);
    }
    priority_t min_live = kNotQueued;
    std::vector<Entry> live;
    live.reserve(items.size());
    for (const Entry& e : items) {
      if (pri_[e.vertex].load(std::memory_order_relaxed) == e.priority) {
        live.push_back(e);
        min_live = std::min(min_live, e.priority);
      } else {
        dropped_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (live.empty()) return false;
    base_.store(min_live, std::memory_order_relaxed);
    for (const Entry& e : live) {
      Bucket& b = buckets_[slot_of(e.priority)];
      std::lock_guard<Spinlock> guard(b.lock);
      b.items.push_back(e);
    }
    return true;
  }

  const vertex_t universe_;
  const std::uint32_t num_buckets_;
  std::vector<Bucket> buckets_;
  std::unique_ptr<std::atomic<priority_t>[]> pri_;
  std::atomic<priority_t> base_{0};
  std::atomic<std::size_t> live_{0};
  std::atomic<std::uint64_t> pushes_{0};
  std::atomic<std::uint64_t> claims_{0};
  std::atomic<std::uint64_t> dropped_{0};  ///< entries pop/compact discarded
  std::vector<std::uint64_t> seen_;        ///< compact()'s dedup bitmap
};

/// Quantizes a positive residual magnitude into a bucket level: residuals
/// >= 1 map to 0 and each halving adds a level, so draining level order is
/// draining residual mass in descending order. Non-positive residuals map
/// to the worst level.
inline priority_t residual_priority(double r) {
  if (!(r > 0.0)) return BucketQueue::kNotQueued - 1;
  if (r >= 1.0) return 0;
  int exp = 0;
  std::frexp(r, &exp);  // r = m * 2^exp with m in [0.5, 1)
  const std::int64_t level = -static_cast<std::int64_t>(exp);
  return static_cast<priority_t>(std::min<std::int64_t>(
      level, static_cast<std::int64_t>(BucketQueue::kNotQueued) - 1));
}

}  // namespace blaze::sched
