// VertexSubset: the frontier type of the EdgeMap/VertexMap API.
//
// Like Ligra's frontiers, a VertexSubset abstracts sparse and dense
// representations (paper Section IV-C): membership is always answered by a
// concurrent bitmap (gather threads add concurrently), and a sorted sparse
// vector is materialized lazily when the subset is small enough that
// iterating members beats scanning the bitmap.
//
// The member count is derived, not maintained: add() is the bitmap fetch_or
// alone, and count() is the popcount of the words, cached until the next
// add(). Builders that produce whole words (all(), clone(), from_words())
// set the count directly.
#pragma once

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "util/common.h"
#include "util/concurrent_bitmap.h"
#include "util/thread_pool.h"

namespace blaze::core {

/// A subset of the vertex ID space [0, universe()).
class VertexSubset {
 public:
  VertexSubset() = default;

  /// Empty subset over `n` vertices.
  explicit VertexSubset(vertex_t n) : bitmap_(n) {}

  /// Subset containing exactly `v`.
  static VertexSubset single(vertex_t n, vertex_t v) {
    VertexSubset s(n);
    s.add(v);
    return s;
  }

  /// Subset containing every vertex: whole words, the tail word masked.
  static VertexSubset all(vertex_t n) {
    VertexSubset s(n);
    const std::size_t words = s.bitmap_.word_count();
    for (std::size_t k = 0; k < words; ++k) s.bitmap_.store_word(k, ~0ULL);
    if (n % 64 != 0) s.bitmap_.store_word(words - 1, (1ULL << (n % 64)) - 1);
    s.count_.store(n, std::memory_order_relaxed);
    return s;
  }

  /// Subset built a word at a time: `word_fn(k)` returns the members in
  /// [64k, 64k+64) as a bit mask, with no bit at or past `n`. Each word is
  /// computed and stored once by the worker that owns its block; the count
  /// is summed from local popcounts, one atomic add per task of words.
  template <typename WordFn>
  static VertexSubset from_words(ThreadPool& pool, vertex_t n,
                                 WordFn&& word_fn) {
    VertexSubset s(n);
    const std::size_t words = s.bitmap_.word_count();
    std::atomic<std::size_t> total{0};
    pool.parallel_for(
        0, ceil_div(words, kWordsPerTask),
        [&](std::size_t t) {
          std::size_t local = 0;
          const std::size_t end = std::min(words, (t + 1) * kWordsPerTask);
          for (std::size_t k = t * kWordsPerTask; k < end; ++k) {
            const std::uint64_t w = word_fn(k);
            if (w == 0) continue;
            s.bitmap_.store_word(k, w);
            local += static_cast<std::size_t>(__builtin_popcountll(w));
          }
          total.fetch_add(local, std::memory_order_relaxed);
        },
        1);
    s.count_.store(total.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    return s;
  }

  vertex_t universe() const {
    return static_cast<vertex_t>(bitmap_.size());
  }

  bool contains(vertex_t v) const { return bitmap_.test(v); }

  /// A moved-from subset is empty over universe 0.
  VertexSubset(VertexSubset&& o) noexcept
      : bitmap_(std::exchange(o.bitmap_, {})),
        count_(o.count_.exchange(0, std::memory_order_relaxed)),
        sparse_(std::exchange(o.sparse_, std::nullopt)) {}
  VertexSubset& operator=(VertexSubset&& o) noexcept {
    if (this == &o) return *this;
    bitmap_ = std::exchange(o.bitmap_, {});
    count_.store(o.count_.exchange(0, std::memory_order_relaxed),
                 std::memory_order_relaxed);
    sparse_ = std::exchange(o.sparse_, std::nullopt);
    return *this;
  }
  VertexSubset(const VertexSubset&) = delete;
  VertexSubset& operator=(const VertexSubset&) = delete;

  /// Deep copy (explicit, since frontiers are usually moved).
  VertexSubset clone() const {
    VertexSubset s(universe());
    for (std::size_t k = 0; k < bitmap_.word_count(); ++k) {
      s.bitmap_.store_word(k, bitmap_.word(k));
    }
    s.count_.store(count(), std::memory_order_relaxed);
    return s;
  }

  /// Thread-safe insert; returns true if `v` was newly added. Must not race
  /// with count(), sparse_view() or for_each (mutation and iteration are
  /// distinct engine phases). The cached count is invalidated read-mostly:
  /// only the first add() after a count() writes its cache line.
  bool add(vertex_t v) {
    if (!bitmap_.set(v)) return false;
    if (count_.load(std::memory_order_relaxed) != kStale) {
      count_.store(kStale, std::memory_order_relaxed);
    }
    return true;
  }

  /// Number of members: the bitmap's popcount, cached until the next add().
  std::size_t count() const {
    std::size_t c = count_.load(std::memory_order_relaxed);
    if (c == kStale) {
      c = bitmap_.count();
      count_.store(c, std::memory_order_relaxed);
    }
    return c;
  }
  bool empty() const { return count() == 0; }

  /// True when the subset is dense enough that bitmap iteration is the
  /// right strategy (the paper's sparse/dense switch, threshold |V|/20 as
  /// in Ligra).
  bool is_dense() const { return count() * 20 >= bitmap_.size(); }

  /// Sequential iteration over members in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (!is_dense()) {
      for (vertex_t v : sparse_view()) fn(v);
      return;
    }
    bitmap_.for_each([&](std::size_t v) { fn(static_cast<vertex_t>(v)); });
  }

  /// Bits [64k, 64k+64) of the membership bitmap (no bit past universe()).
  std::size_t word_count() const { return bitmap_.word_count(); }
  std::uint64_t word(std::size_t k) const { return bitmap_.word(k); }

  /// Parallel iteration over members using `pool`.
  template <typename Fn>
  void for_each_parallel(ThreadPool& pool, Fn&& fn) const {
    if (!is_dense()) {
      const auto& sv = sparse_view();
      pool.parallel_for(0, sv.size(),
                        [&](std::size_t i) { fn(sv[i]); }, 256);
      return;
    }
    pool.parallel_for(
        0, bitmap_.word_count(),
        [&](std::size_t wi) {
          std::uint64_t w = bitmap_.word(wi);
          while (w != 0) {
            int bit = __builtin_ctzll(w);
            fn(static_cast<vertex_t>((wi << 6) + bit));
            w &= w - 1;
          }
        },
        kWordsPerTask);
  }

  /// Members as a sorted vector. Cached; rebuilt when add() has run since
  /// the last materialization (detected via the count).
  const std::vector<vertex_t>& sparse_view() const {
    if (sparse_ && sparse_->size() != count()) sparse_.reset();
    if (!sparse_) {
      std::vector<vertex_t> v;
      v.reserve(count());
      bitmap_.for_each(
          [&](std::size_t i) { v.push_back(static_cast<vertex_t>(i)); });
      sparse_ = std::move(v);
    }
    return *sparse_;
  }

  /// DRAM bytes of this subset (bitmap plus any cached sparse view).
  std::uint64_t memory_bytes() const {
    std::uint64_t b = bitmap_.word_count() * sizeof(std::uint64_t);
    if (sparse_) b += sparse_->size() * sizeof(vertex_t);
    return b;
  }

 private:
  static constexpr std::size_t kStale = std::numeric_limits<std::size_t>::max();
  /// Bitmap words one parallel task scans or builds (4096 vertices).
  static constexpr std::size_t kWordsPerTask = 64;

  ConcurrentBitmap bitmap_;
  mutable std::atomic<std::size_t> count_{0};  ///< kStale after add()
  mutable std::optional<std::vector<vertex_t>> sparse_;
};

}  // namespace blaze::core
