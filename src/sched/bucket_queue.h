// sched::BucketQueue: the priority frontier behind asynchronous execution.
//
// A bucket queue in the delta-stepping tradition: vertices are keyed by a
// small integer priority (bucketed tentative distance, quantized label —
// lower is more urgent), and the consumer always drains the lowest
// non-empty bucket. Four properties make it fit the async EdgeMap loop:
//
//  * Single-threaded. Every push, pop, claim and compact runs on the
//    AsyncRunner's thread: the algorithms seed the queue before run(), and
//    the runner files each round's updated vertices between rounds (the
//    gathers only mark a bitmap). Nothing here is atomic or locked.
//  * Lazy decrease. There is no decrease-key; improving a vertex's
//    priority appends a second entry and lowers the per-vertex recorded
//    priority. Pop claims an entry only when its priority still matches
//    the record (claim = record -> kNotQueued), so stale entries are
//    dropped for free and each queued vertex is delivered exactly once per
//    enqueue generation.
//  * Overflow bucket. Priorities are unbounded (long distances, large
//    labels); everything at or beyond the physical bucket range parks
//    in the last slot. When the regular slots drain, the base advances to
//    the minimum live priority and the overflow redistributes — the
//    classic sliding-window bucket structure.
//  * Out-of-order claims. claim(v) takes a queued vertex regardless of its
//    bucket (the AsyncRunner's page coalescing); its entry stays behind as
//    a stale one, and compact() drops stale and duplicate entries so the
//    queue's memory stays bounded by the live vertex count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/common.h"

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
        pri_(universe, kNotQueued) {}

  vertex_t universe() const { return universe_; }
  std::uint32_t num_buckets() const { return num_buckets_; }

  /// Enqueues `v` at `priority`, or improves its priority if already
  /// queued at a worse (larger) one. Pushes at an equal-or-worse priority
  /// are ignored — the queued entry already covers them. Returns true if
  /// the queue state changed.
  bool push(vertex_t v, priority_t priority) {
    BLAZE_CHECK(v < universe_, "BucketQueue::push vertex out of range");
    if (priority == kNotQueued) priority = kNotQueued - 1;
    priority_t& cur = pri_[v];
    if (cur != kNotQueued && cur <= priority) return false;
    if (cur == kNotQueued) ++live_;
    cur = priority;
    buckets_[slot_of(priority)].push_back(Entry{v, priority});
    ++pushes_;
    return true;
  }

  /// Drains the lowest non-empty bucket into `out` (appended), claiming
  /// each live vertex (its record resets to kNotQueued, so a later push
  /// re-enqueues it). Returns false when the queue is empty.
  bool pop_bucket(std::vector<vertex_t>& out) {
    for (;;) {
      for (std::uint32_t s = 0; s + 1 < num_buckets_; ++s) {
        if (drain_slot(s, out)) return true;
      }
      // Regular slots are all empty (or all-stale): slide the base to the
      // overflow bucket's minimum live priority and redistribute; entries
      // still past the new window stay parked. No live entry left means
      // the queue is drained.
      if (!redistribute_overflow()) return false;
    }
  }

  /// Claims `v` out of priority order: if it is queued, its record resets
  /// to kNotQueued (a later push re-enqueues it) and the call returns
  /// true; its bucket entry is left for compact() or pop to drop.
  bool claim(vertex_t v) {
    if (pri_[v] == kNotQueued) return false;
    pri_[v] = kNotQueued;
    --live_;
    ++claims_;
    return true;
  }

  /// Drops every stale entry and every duplicate of a live one, so the
  /// buckets hold exactly one entry per queued vertex afterwards and
  /// release the memory the dropped entries held.
  void compact() {
    if (seen_.empty()) seen_.assign(universe_ / 64 + 1, 0);
    for (std::vector<Entry>& b : buckets_) {
      std::size_t kept = 0;
      for (const Entry& e : b) {
        std::uint64_t& word = seen_[e.vertex / 64];
        const std::uint64_t bit = std::uint64_t{1} << (e.vertex % 64);
        if ((word & bit) == 0 && pri_[e.vertex] == e.priority) {
          word |= bit;
          b[kept++] = e;
        } else {
          ++dropped_;
        }
      }
      b.resize(kept);
      if (b.capacity() > 2 * kept + 64) b.shrink_to_fit();
    }
    for (const std::vector<Entry>& b : buckets_) {
      for (const Entry& e : b) seen_[e.vertex / 64] = 0;
    }
  }

  /// Entries held across all buckets, live or stale (the queue's memory
  /// footprint in entries).
  std::size_t entries() const {
    std::size_t n = 0;
    for (const std::vector<Entry>& b : buckets_) n += b.size();
    return n;
  }

  /// Current recorded priority of `v` (kNotQueued when not enqueued).
  priority_t priority_of(vertex_t v) const { return pri_[v]; }

  /// Number of distinct queued vertices.
  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }

  /// Total push() calls that changed queue state.
  std::uint64_t pushes() const { return pushes_; }
  /// Vertices taken by claim().
  std::uint64_t claims() const { return claims_; }
  /// Entries discarded because a fresher entry superseded them, not
  /// counting the entry each claim() leaves behind. Exact once compact()
  /// has run or the queue has drained; then deliveries + claims() +
  /// stale_drops() + size() == pushes().
  std::uint64_t stale_drops() const {
    return dropped_ > claims_ ? dropped_ - claims_ : 0;
  }
  /// Current window base (minimum priority the regular slots can hold).
  priority_t base() const { return base_; }

  /// Empties the queue and resets all recorded priorities.
  void clear() {
    for (std::vector<Entry>& b : buckets_) b.clear();
    std::fill(pri_.begin(), pri_.end(), kNotQueued);
    live_ = 0;
    base_ = 0;
  }

 private:
  struct Entry {
    vertex_t vertex;
    priority_t priority;
  };

  /// Physical slot for a priority under the current base. Priorities below
  /// the base (pushed after a window slide) clamp to slot 0 — they are
  /// still popped first, which is the only ordering monotone algorithms
  /// need. Priorities past the window park in the overflow slot.
  std::uint32_t slot_of(priority_t p) const {
    const priority_t rel = p < base_ ? 0 : p - base_;
    return static_cast<std::uint32_t>(
        std::min<priority_t>(rel, num_buckets_ - 1));
  }

  /// Empties slot `s` and claims its live entries into `out`. Returns true
  /// if anything was claimed.
  bool drain_slot(std::uint32_t s, std::vector<vertex_t>& out) {
    const std::vector<Entry> items = std::exchange(buckets_[s], {});
    const std::size_t before = out.size();
    for (const Entry& e : items) {
      if (pri_[e.vertex] == e.priority) {
        pri_[e.vertex] = kNotQueued;
        --live_;
        out.push_back(e.vertex);
      } else {
        ++dropped_;
      }
    }
    return out.size() != before;
  }

  /// Slides the window base to the minimum live priority in the overflow
  /// bucket and re-files its entries. Returns true if any live entry was
  /// re-filed (a subsequent regular-slot scan will find it).
  bool redistribute_overflow() {
    const std::vector<Entry> items =
        std::exchange(buckets_[num_buckets_ - 1], {});
    priority_t min_live = kNotQueued;
    std::vector<Entry> live;
    live.reserve(items.size());
    for (const Entry& e : items) {
      if (pri_[e.vertex] == e.priority) {
        live.push_back(e);
        min_live = std::min(min_live, e.priority);
      } else {
        ++dropped_;
      }
    }
    if (live.empty()) return false;
    base_ = min_live;
    for (const Entry& e : live) buckets_[slot_of(e.priority)].push_back(e);
    return true;
  }

  const vertex_t universe_;
  const std::uint32_t num_buckets_;
  std::vector<std::vector<Entry>> buckets_;
  std::vector<priority_t> pri_;  ///< recorded priority per vertex
  priority_t base_ = 0;
  std::size_t live_ = 0;
  std::uint64_t pushes_ = 0;
  std::uint64_t claims_ = 0;
  std::uint64_t dropped_ = 0;       ///< entries pop/compact discarded
  std::vector<std::uint64_t> seen_;  ///< compact()'s dedup bitmap
};

}  // namespace blaze::sched
