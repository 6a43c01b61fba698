// Atomic helpers for the synchronization-based engine variant.
//
// The CAS-based gather functions exist to reproduce the paper's Figure 8
// baseline ("synchronization-based variant of Blaze that uses atomic
// operations like compare-and-swap"); Blaze's normal binned path never
// uses them.
#pragma once

#include <atomic>

#include "util/common.h"

namespace blaze::algorithms::detail {

/// Relaxed load/store for values read optimistically across threads: a
/// scatter-side `cond`/`scatter` may observe a destination value while a
/// gather thread updates it. The engines tolerate stale reads (filters
/// are re-checked under gather exclusivity; label/distance propagation is
/// monotone), but the accesses must still be atomic — a plain load
/// concurrent with a store is a data race. Relaxed atomics compile to the
/// same instructions as the plain accesses they replace.
template <typename T>
T relaxed_load(const T& loc) {
  // atomic_ref<const T> arrives in C++26; the cast is sound because the
  // underlying object is never actually const.
  return std::atomic_ref<T>(const_cast<T&>(loc))
      .load(std::memory_order_relaxed);
}

template <typename T>
void relaxed_store(T& loc, T value) {
  std::atomic_ref<T>(loc).store(value, std::memory_order_relaxed);
}

/// CAS: writes `desired` iff the location still holds `expected`.
template <typename T>
bool cas(T& loc, T expected, T desired) {
  return std::atomic_ref<T>(loc).compare_exchange_strong(
      expected, desired, std::memory_order_relaxed);
}

/// Atomic floating-point accumulate (CAS loop).
template <typename T>
void atomic_add(T& loc, T delta) {
  std::atomic_ref<T> ref(loc);
  T cur = ref.load(std::memory_order_relaxed);
  while (!ref.compare_exchange_weak(cur, cur + delta,
                                    std::memory_order_relaxed)) {
  }
}

/// Atomic min; returns true if `loc` was lowered.
template <typename T>
bool atomic_min(T& loc, T value) {
  std::atomic_ref<T> ref(loc);
  T cur = ref.load(std::memory_order_relaxed);
  while (value < cur) {
    if (ref.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

}  // namespace blaze::algorithms::detail
