// Concurrent fixed-size bitmap.
//
// Backs VertexSubset and the page frontier: gather threads set bits for
// the output frontier concurrently, and the page-frontier pass
// (core/page_frontier.h) stores whole words, one owner per word.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/common.h"

namespace blaze {

/// Fixed-capacity bitmap with atomic set/test. clear() and count() are not
/// safe against concurrent mutation (call them between phases).
class ConcurrentBitmap {
 public:
  ConcurrentBitmap() = default;
  explicit ConcurrentBitmap(std::size_t num_bits)
      : num_bits_(num_bits), words_(ceil_div<std::size_t>(num_bits, 64)) {}

  std::size_t size() const { return num_bits_; }

  /// Atomically sets bit `i`. Returns true if this call changed it 0 -> 1.
  bool set(std::size_t i) {
    std::uint64_t mask = 1ULL << (i & 63);
    std::uint64_t prev =
        words_[i >> 6].fetch_or(mask, std::memory_order_relaxed);
    return (prev & mask) == 0;
  }

  bool test(std::size_t i) const {
    return (words_[i >> 6].load(std::memory_order_relaxed) >>
            (i & 63)) & 1;
  }

  /// Clears all bits. Not thread-safe.
  void clear() {
    for (auto& w : words_) w.store(0, std::memory_order_relaxed);
  }

  /// Population count. Not safe against concurrent writers.
  std::size_t count() const {
    std::size_t n = 0;
    for (const auto& w : words_) {
      n += static_cast<std::size_t>(
          __builtin_popcountll(w.load(std::memory_order_relaxed)));
    }
    return n;
  }

  /// Invokes `fn(i)` for every set bit, in ascending order. Not safe against
  /// concurrent writers.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi].load(std::memory_order_relaxed);
      while (w != 0) {
        int bit = __builtin_ctzll(w);
        std::size_t i = (wi << 6) + static_cast<std::size_t>(bit);
        if (i < num_bits_) fn(i);
        w &= w - 1;
      }
    }
  }

  /// Direct word access for parallel scans (word `k` covers bits
  /// [64k, 64k+64)).
  std::size_t word_count() const { return words_.size(); }
  std::uint64_t word(std::size_t k) const {
    return words_[k].load(std::memory_order_relaxed);
  }
  /// Overwrites word `k`. Safe when no other thread touches that word
  /// (the caller owns the 64-bit block); bits at or past size() must be 0.
  void store_word(std::size_t k, std::uint64_t w) {
    words_[k].store(w, std::memory_order_relaxed);
  }

 private:
  std::size_t num_bits_ = 0;
  std::vector<std::atomic<std::uint64_t>> words_;
};

}  // namespace blaze
