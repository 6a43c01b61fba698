#include "device/page_cache.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>

#include "trace/tracer.h"

namespace blaze::device {

namespace {

/// splitmix64 finalizer: decorrelates shard choice from the page number so
/// striped/sequential workloads spread across shards instead of marching
/// through them in lockstep.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ------------------------------------------------------------------- LRU

/// Intrusive doubly-linked list over slots; head = most recent.
class LruPolicy final : public CachePolicy {
 public:
  explicit LruPolicy(std::size_t slots)
      : prev_(slots, kNil), next_(slots, kNil) {}

  bool inserted(std::size_t slot, std::uint64_t) override {
    push_front(slot);
    return false;
  }

  void touched(std::size_t slot) override {
    unlink(slot);
    push_front(slot);
  }

  std::size_t victim() override {
    const std::size_t slot = tail_;
    unlink(slot);
    return slot;
  }

 private:
  static constexpr std::size_t kNil = ~std::size_t{0};

  void unlink(std::size_t slot) {
    const bool linked =
        head_ == slot || prev_[slot] != kNil || next_[slot] != kNil;
    if (!linked) return;
    std::size_t p = prev_[slot], n = next_[slot];
    if (p != kNil) next_[p] = n;
    else head_ = n;
    if (n != kNil) prev_[n] = p;
    else tail_ = p;
    prev_[slot] = next_[slot] = kNil;
  }

  void push_front(std::size_t slot) {
    prev_[slot] = kNil;
    next_[slot] = head_;
    if (head_ != kNil) prev_[head_] = slot;
    head_ = slot;
    if (tail_ == kNil) tail_ = slot;
  }

  std::vector<std::size_t> prev_, next_;
  std::size_t head_ = kNil, tail_ = kNil;
};

// ---------------------------------------------------------------- Random

class RandomPolicy final : public CachePolicy {
 public:
  RandomPolicy(std::size_t slots, std::uint64_t seed)
      : slots_(slots), rng_(seed) {}

  bool inserted(std::size_t, std::uint64_t) override { return false; }
  void touched(std::size_t) override {}

  std::size_t victim() override {
    // Only called when every slot is resident, so any index is valid.
    return static_cast<std::size_t>(rng_.next_below(slots_));
  }

 private:
  std::size_t slots_;
  Xoshiro256 rng_;
};

// --------------------------------------------------------------- S3-FIFO

/// Small/main/ghost FIFO trio (Yang et al., "FIFO queues are all you need
/// for cache eviction", SOSP'23), sized per shard:
///
///   small (10% of slots)  probationary queue for first-time pages — a
///                         full sequential scan streams through it without
///                         ever touching main, which is what makes the
///                         policy scan-resistant;
///   main  (90% of slots)  protected queue; entries get a second chance
///                         per recorded access before eviction;
///   ghost (1x slots)      page IDs (no data) of recent small-queue
///                         evictions — a re-fault found here is a hot page
///                         the small queue was too small to see twice, and
///                         is admitted straight into main (a "ghost hit").
///
/// A page evicted from the small queue with at least one post-insert
/// access is promoted to main instead of evicted (single re-access
/// promotes: graph queries re-read index/hub pages within one iteration,
/// so waiting for two accesses forfeits most of the win). Access counts
/// saturate at 3, as in the paper.
class S3FifoPolicy final : public CachePolicy {
 public:
  explicit S3FifoPolicy(std::size_t slots)
      : small_target_(std::max<std::size_t>(1, slots / 10)),
        ghost_capacity_(std::max<std::size_t>(1, slots)),
        key_(slots, 0),
        freq_(slots, 0),
        queue_(slots, Queue::kNone),
        prev_(slots, kNil),
        next_(slots, kNil) {}

  bool inserted(std::size_t slot, std::uint64_t key) override {
    key_[slot] = key;
    freq_[slot] = 0;
    auto it = ghost_set_.find(key);
    if (it != ghost_set_.end()) {
      ghost_set_.erase(it);  // its fifo entry expires lazily
      push_front(Queue::kMain, slot);
      return true;
    }
    push_front(Queue::kSmall, slot);
    return false;
  }

  void touched(std::size_t slot) override {
    if (freq_[slot] < 3) ++freq_[slot];
  }

  std::size_t victim() override {
    while (true) {
      const bool small_full =
          small_size_ >= small_target_ && tail_[kSmall] != kNil;
      if (small_full || tail_[kMain] == kNil) {
        const std::size_t s = tail_[kSmall];
        unlink(Queue::kSmall, s);
        if (freq_[s] > 0) {
          // Re-accessed while probationary: promote instead of evicting.
          freq_[s] = 0;
          push_front(Queue::kMain, s);
          continue;
        }
        ghost_insert(key_[s]);
        return s;
      }
      const std::size_t m = tail_[kMain];
      unlink(Queue::kMain, m);
      if (freq_[m] > 0) {
        --freq_[m];  // second chance
        push_front(Queue::kMain, m);
        continue;
      }
      return m;  // main evictions do not enter the ghost
    }
  }

 private:
  enum class Queue : std::uint8_t { kNone, kSmall, kMain };
  static constexpr std::size_t kNil = ~std::size_t{0};
  static constexpr std::size_t kSmall = 0, kMain = 1;

  static std::size_t qi(Queue q) { return q == Queue::kSmall ? kSmall : kMain; }

  void push_front(Queue q, std::size_t slot) {
    const std::size_t i = qi(q);
    queue_[slot] = q;
    prev_[slot] = kNil;
    next_[slot] = head_[i];
    if (head_[i] != kNil) prev_[head_[i]] = slot;
    head_[i] = slot;
    if (tail_[i] == kNil) tail_[i] = slot;
    if (q == Queue::kSmall) ++small_size_;
  }

  void unlink(Queue q, std::size_t slot) {
    const std::size_t i = qi(q);
    std::size_t p = prev_[slot], n = next_[slot];
    if (p != kNil) next_[p] = n;
    else head_[i] = n;
    if (n != kNil) prev_[n] = p;
    else tail_[i] = p;
    prev_[slot] = next_[slot] = kNil;
    queue_[slot] = Queue::kNone;
    if (q == Queue::kSmall) --small_size_;
  }

  void ghost_insert(std::uint64_t key) {
    if (!ghost_set_.insert(key).second) return;  // already ghosted
    ghost_fifo_.push_back(key);
    // Expire oldest entries; skip IDs already resurrected by a ghost hit.
    while (ghost_set_.size() > ghost_capacity_ && !ghost_fifo_.empty()) {
      ghost_set_.erase(ghost_fifo_.front());
      ghost_fifo_.pop_front();
    }
    // Bound the fifo against lazily expired (resurrected) entries.
    while (ghost_fifo_.size() > 2 * ghost_capacity_) {
      ghost_set_.erase(ghost_fifo_.front());
      ghost_fifo_.pop_front();
    }
  }

  const std::size_t small_target_;
  const std::size_t ghost_capacity_;
  std::vector<std::uint64_t> key_;
  std::vector<std::uint8_t> freq_;
  std::vector<Queue> queue_;
  std::vector<std::size_t> prev_, next_;
  std::size_t head_[2] = {kNil, kNil}, tail_[2] = {kNil, kNil};
  std::size_t small_size_ = 0;
  std::unordered_set<std::uint64_t> ghost_set_;
  std::deque<std::uint64_t> ghost_fifo_;
};

}  // namespace

std::unique_ptr<CachePolicy> make_cache_policy(EvictionPolicy policy,
                                               std::size_t slots,
                                               std::uint64_t seed) {
  switch (policy) {
    case EvictionPolicy::kLru: return std::make_unique<LruPolicy>(slots);
    case EvictionPolicy::kRandom:
      return std::make_unique<RandomPolicy>(slots, seed);
    case EvictionPolicy::kS3Fifo:
      return std::make_unique<S3FifoPolicy>(slots);
  }
  return std::make_unique<LruPolicy>(slots);
}

// -------------------------------------------------------------- CacheShard

CacheShard::CacheShard(std::uint32_t index, std::size_t capacity_pages,
                       EvictionPolicy policy, std::uint64_t seed)
    : index_(index),
      capacity_pages_(std::max<std::size_t>(4, capacity_pages)),
      storage_(capacity_pages_ * kPageSize),
      policy_(make_cache_policy(policy, capacity_pages_, seed)),
      slot_key_(capacity_pages_, ~0ull) {
  free_slots_.reserve(capacity_pages_);
  for (std::size_t i = 0; i < capacity_pages_; ++i) free_slots_.push_back(i);
  map_.reserve(capacity_pages_ * 2);
}

bool CacheShard::copy_run_locked(std::uint64_t first_key,
                                 std::uint32_t num_pages, std::byte* out) {
  for (std::uint32_t j = 0; j < num_pages; ++j) {
    if (!map_.contains(first_key + j)) return false;
  }
  for (std::uint32_t j = 0; j < num_pages; ++j) {
    std::size_t slot = map_.find(first_key + j)->second;
    policy_->touched(slot);
    std::memcpy(out + std::size_t{j} * kPageSize,
                storage_.data() + slot * kPageSize, kPageSize);
  }
  return true;
}

CacheShard::Probe CacheShard::classify_locked(std::uint64_t first_key,
                                              std::uint32_t num_pages,
                                              std::byte* out) {
  if (copy_run_locked(first_key, num_pages, out)) return Probe::kHit;
  // Defer only when every MISSING page is already being read elsewhere —
  // then this request costs zero inner reads once the owners finish. A
  // partially covered run is claimed outright: re-reading an in-flight
  // page alongside the truly missing ones is at worst one redundant page
  // inside an already-merged request.
  for (std::uint32_t j = 0; j < num_pages; ++j) {
    const std::uint64_t k = first_key + j;
    if (!map_.contains(k) && !inflight_.contains(k)) {
      return Probe::kClaimable;
    }
  }
  return Probe::kDeferred;
}

void CacheShard::claim_locked(std::uint64_t first_key,
                              std::uint32_t num_pages) {
  for (std::uint32_t j = 0; j < num_pages; ++j) ++inflight_[first_key + j];
}

RunState CacheShard::start_run(std::uint64_t first_key,
                               std::uint32_t num_pages, std::byte* out) {
  std::lock_guard lock(mu_);
  switch (classify_locked(first_key, num_pages, out)) {
    case Probe::kHit:
      return RunState::kHit;
    case Probe::kDeferred:
      return RunState::kDeferred;
    case Probe::kClaimable:
      break;
  }
  claim_locked(first_key, num_pages);
  return RunState::kOwned;
}

CacheShard::Probe CacheShard::peek_run(std::uint64_t first_key,
                                       std::uint32_t num_pages,
                                       std::byte* out) {
  std::lock_guard lock(mu_);
  return classify_locked(first_key, num_pages, out);
}

void CacheShard::claim_run(std::uint64_t first_key, std::uint32_t num_pages) {
  std::lock_guard lock(mu_);
  claim_locked(first_key, num_pages);
}

void CacheShard::end_run(std::uint64_t first_key, std::uint32_t num_pages) {
  {
    std::lock_guard lock(mu_);
    for (std::uint32_t j = 0; j < num_pages; ++j) {
      auto it = inflight_.find(first_key + j);
      if (it == inflight_.end()) continue;
      if (--it->second == 0) inflight_.erase(it);
    }
  }
  inflight_cv_.notify_all();
}

bool CacheShard::fill_locked(std::uint64_t key, const std::byte* data) {
  std::size_t slot;
  bool ghost_hit = false;
  if (auto it = map_.find(key); it != map_.end()) {
    // Racing fill of the same page: refresh in place, count as a touch.
    slot = it->second;
    policy_->touched(slot);
  } else {
    // Namespace budget enforcement (admission bypass): refuse to retain a
    // NEW page of an at-cap namespace. The read itself already completed
    // into the caller's buffer, and the dedup protocol is unaffected —
    // end_run() still releases the in-flight marks, so deferred peers
    // re-probe, miss, and claim their own read.
    if (auto cap = ns_cap_pages_.find(key >> kNamespaceShift);
        cap != ns_cap_pages_.end()) {
      auto res = ns_resident_.find(key >> kNamespaceShift);
      if (res != ns_resident_.end() && res->second >= cap->second) {
        return false;
      }
    }
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = policy_->victim();
      if (slot == kNil) return false;
      const std::uint64_t victim_key = slot_key_[slot];
      map_.erase(victim_key);
      if (auto ns = ns_resident_.find(victim_key >> kNamespaceShift);
          ns != ns_resident_.end() && --ns->second == 0) {
        ns_resident_.erase(ns);
      }
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    slot_key_[slot] = key;
    map_[key] = slot;
    ++ns_resident_[key >> kNamespaceShift];
    ghost_hit = policy_->inserted(slot, key);
  }
  std::memcpy(storage_.data() + slot * kPageSize, data, kPageSize);
  return ghost_hit;
}

bool CacheShard::fill(std::uint64_t key, const std::byte* data) {
  std::lock_guard lock(mu_);
  return fill_locked(key, data);
}

SyncAcquire CacheShard::acquire_page_sync(std::uint64_t key, std::byte* dst) {
  std::unique_lock lock(mu_);
  bool waited = false;
  while (true) {
    if (copy_run_locked(key, 1, dst)) {
      return waited ? SyncAcquire::kDedupHit : SyncAcquire::kHit;
    }
    if (!inflight_.contains(key)) break;  // claim the read ourselves
    // Another caller is reading this page right now: wait for its fill
    // instead of issuing a duplicate device read. The timeout bounds the
    // wait if the owner aborts between its end_run() and our wakeup race.
    waited = true;
    inflight_cv_.wait_for(lock, std::chrono::microseconds(200));
  }
  ++inflight_[key];
  return SyncAcquire::kOwned;
}

void CacheShard::add_resident_by_namespace(
    std::unordered_map<std::uint64_t, std::uint64_t>& acc) const {
  std::lock_guard lock(mu_);
  for (const auto& [ns, pages] : ns_resident_) acc[ns] += pages;
}

void CacheShard::set_ns_cap(std::uint64_t ns, std::uint64_t cap_pages) {
  std::lock_guard lock(mu_);
  if (cap_pages == 0) ns_cap_pages_.erase(ns);
  else ns_cap_pages_[ns] = cap_pages;
  // Over-cap residents (the cap shrank) are not evicted eagerly: they age
  // out through normal eviction while new admissions are refused.
}

std::size_t CacheShard::resident_pages() const {
  std::lock_guard lock(mu_);
  return map_.size();
}

// ------------------------------------------------------- ShardedPageCache

std::size_t ShardedPageCache::auto_shards(std::size_t capacity_pages) {
  return std::clamp<std::size_t>(capacity_pages / 256, 1, 16);
}

ShardedPageCache::ShardedPageCache(PageCacheOptions opts)
    : opts_(std::move(opts)) {
  std::size_t total_pages =
      std::max<std::size_t>(4, opts_.capacity_bytes / kPageSize);
  std::size_t n = opts_.shards != 0 ? opts_.shards
                                    : auto_shards(total_pages);
  n = std::max<std::size_t>(1, n);
  // Every shard holds at least 4 pages (the legacy CachedDevice floor);
  // shrink the shard count rather than starve shards below it.
  n = std::min(n, std::max<std::size_t>(1, total_pages / 4));
  opts_.shards = n;
  const std::size_t per_shard =
      std::max<std::size_t>(4, (total_pages + n - 1) / n);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<CacheShard>(
        static_cast<std::uint32_t>(i), per_shard, opts_.policy,
        opts_.seed + 0x9e3779b97f4a7c15ull * (i + 1)));
  }
  capacity_pages_ = per_shard * n;
}

CacheNamespace ShardedPageCache::register_device(
    const std::string& device_name) {
  CacheNamespace ns;
  {
    std::lock_guard lock(devices_mu_);
    // 2^48 pages = 1 EiB per device: namespaces can never overlap in
    // practice, and the group/shard hash sees distinct high bits per
    // device.
    ns.base = std::uint64_t{namespaces_.size()} << kNamespaceShift;
    ns.counters = &namespaces_.emplace_back(device_name).counters;
  }
  bind_new_namespaces();
  return ns;
}

std::vector<ShardedPageCache::NamespaceUsage>
ShardedPageCache::namespace_usage() const {
  std::unordered_map<std::uint64_t, std::uint64_t> acc;
  for (const auto& s : shards_) s->add_resident_by_namespace(acc);
  std::vector<NamespaceUsage> out;
  std::lock_guard lock(devices_mu_);
  out.reserve(namespaces_.size());
  for (std::uint64_t id = 0; id < namespaces_.size(); ++id) {
    NamespaceUsage u;
    u.base = id << kNamespaceShift;
    u.name = namespaces_[id].name;
    if (auto it = acc.find(id); it != acc.end()) u.resident_pages = it->second;
    u.cache = namespaces_[id].counters.load();
    out.push_back(std::move(u));
  }
  return out;
}

std::uint32_t ShardedPageCache::shard_of(std::uint64_t key) const {
  const std::uint64_t group = key / kShardGroupPages;
  return static_cast<std::uint32_t>(mix64(group) % shards_.size());
}

template <typename Fn>
void ShardedPageCache::for_each_segment(std::uint64_t first_key,
                                        std::uint32_t num_pages, Fn&& fn) {
  std::uint64_t key = first_key;
  std::uint32_t left = num_pages;
  while (left > 0) {
    const std::uint64_t group_end =
        (key / kShardGroupPages + 1) * kShardGroupPages;
    const auto seg = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(left, group_end - key));
    fn(*shards_[shard_of(key)], key, seg);
    key += seg;
    left -= seg;
  }
}

void ShardedPageCache::trace_outcome(std::uint64_t first_key,
                                     std::uint32_t num_pages, bool hit) {
  if (!trace::enabled()) return;
  const trace::Name name = hit ? trace::Name::kCacheHit
                               : trace::Name::kCacheMiss;
  for_each_segment(first_key, num_pages,
                   [&](CacheShard& s, std::uint64_t, std::uint32_t p) {
                     trace::instant(name, trace::cache_arg(p, s.index() + 1));
                   });
}

RunState ShardedPageCache::start_run(std::uint64_t first_key,
                                     std::uint32_t num_pages,
                                     std::byte* out) {
  RunState state = RunState::kDeferred;
  if (first_key / kShardGroupPages ==
      (first_key + num_pages - 1) / kShardGroupPages) {
    // Fast path: the run lives in one shard-group (the common case —
    // groups are sized to the read engine's merge bound), where the shard
    // runs the whole protocol under one lock.
    state = shards_[shard_of(first_key)]->start_run(first_key, num_pages,
                                                    out);
  } else {
    // Run spans two shards: peek every segment first, then claim once the
    // combined outcome is known, keeping the run all-or-nothing. The
    // protocol tolerates state changing between the passes: a stale kHit
    // segment inside an owned run is merely re-read, a stale kDeferred
    // resolves on the caller's next retry.
    struct Seg {
      CacheShard* shard;
      std::uint64_t first;
      std::uint32_t pages;
    };
    Seg segs[2];
    std::size_t n = 0;
    bool all_hit = true, any_claimable = false;
    std::byte* cursor = out;
    for_each_segment(first_key, num_pages,
                     [&](CacheShard& s, std::uint64_t k, std::uint32_t p) {
                       const CacheShard::Probe probe = s.peek_run(k, p, cursor);
                       all_hit = all_hit && probe == CacheShard::Probe::kHit;
                       any_claimable = any_claimable ||
                                       probe == CacheShard::Probe::kClaimable;
                       segs[n++] = {&s, k, p};
                       cursor += std::size_t{p} * kPageSize;
                     });
    if (all_hit) {
      state = RunState::kHit;
    } else if (any_claimable) {
      // Partially covered: claim the WHOLE run (hit/in-flight segments
      // too) — the device read re-fetches everything, exactly like the
      // single-shard protocol's partially covered case.
      for (std::size_t i = 0; i < n; ++i) {
        segs[i].shard->claim_run(segs[i].first, segs[i].pages);
      }
      state = RunState::kOwned;
    }
  }
  if (state != RunState::kDeferred) {
    trace_outcome(first_key, num_pages, state == RunState::kHit);
  }
  return state;
}

RunState ShardedPageCache::try_start_run(std::uint64_t first_key,
                                         std::uint32_t num_pages,
                                         std::byte* out) {
  // One logical access — a later retry_deferred_run() of the same run is
  // the same access and is not re-reported.
  notify_access(first_key, num_pages);
  return start_run(first_key, num_pages, out);
}

RunState ShardedPageCache::retry_deferred_run(std::uint64_t first_key,
                                              std::uint32_t num_pages,
                                              std::byte* out) {
  return start_run(first_key, num_pages, out);
}

void ShardedPageCache::end_run(std::uint64_t first_key,
                               std::uint32_t num_pages) {
  for_each_segment(first_key, num_pages,
                   [](CacheShard& s, std::uint64_t k, std::uint32_t p) {
                     s.end_run(k, p);
                   });
}

bool ShardedPageCache::fill(std::uint64_t key, const std::byte* data) {
  return shards_[shard_of(key)]->fill(key, data);
}

bool ShardedPageCache::lookup_run(std::uint64_t first_key,
                                  std::uint32_t num_pages, std::byte* out) {
  notify_access(first_key, num_pages);
  // Peek every segment (each touches its pages when fully resident), then
  // decide for the whole run.
  bool all_hit = true;
  std::byte* cursor = out;
  for_each_segment(first_key, num_pages,
                   [&](CacheShard& s, std::uint64_t k, std::uint32_t p) {
                     all_hit = s.peek_run(k, p, cursor) ==
                                   CacheShard::Probe::kHit &&
                               all_hit;
                     cursor += std::size_t{p} * kPageSize;
                   });
  trace_outcome(first_key, num_pages, all_hit);
  return all_hit;
}

SyncAcquire ShardedPageCache::acquire_page_sync(std::uint64_t key,
                                                std::byte* dst) {
  notify_access(key, 1);
  const SyncAcquire a = shards_[shard_of(key)]->acquire_page_sync(key, dst);
  trace_outcome(key, 1, a != SyncAcquire::kOwned);
  return a;
}

void ShardedPageCache::set_namespace_cap(std::uint64_t ns_base,
                                         std::uint64_t cap_bytes) {
  const std::uint64_t ns = ns_base >> kNamespaceShift;
  std::uint64_t per_shard = 0;
  if (cap_bytes != 0) {
    const std::uint64_t cap_pages =
        std::max<std::uint64_t>(1, cap_bytes / kPageSize);
    per_shard = (cap_pages + shards_.size() - 1) / shards_.size();
  }
  for (const auto& s : shards_) s->set_ns_cap(ns, per_shard);
}

CacheCounters ShardedPageCache::cache_counters() const {
  CacheCounters total;
  {
    std::lock_guard lock(devices_mu_);
    for (const Namespace& ns : namespaces_) {
      const CacheCounters c = ns.counters.load();
      total.hits += c.hits;
      total.misses += c.misses;
      total.dedup_hits += c.dedup_hits;
      total.ghost_hits += c.ghost_hits;
    }
  }
  for (const auto& s : shards_) total.evictions += s->evictions();
  return total;
}

void ShardedPageCache::bind_metrics() {
  {
    std::lock_guard lock(bind_mu_);
    if (metrics_bound_) return;
    metrics_bound_ = true;
    metrics::Registry& reg = metrics::Registry::instance();
    using metrics::Kind;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const CacheShard* s = shards_[i].get();
      metrics_bindings_.add(reg.callback(
          "blaze_cache_evictions_total",
          {{"cache", opts_.name}, {"shard", std::to_string(i)}},
          Kind::kCounter,
          [s] { return static_cast<double>(s->evictions()); }));
    }
    const metrics::Labels pool_labels{{"cache", opts_.name}};
    metrics_bindings_.add(reg.callback(
        "blaze_cache_hit_rate", pool_labels, Kind::kGauge,
        [this] { return cache_counters().hit_rate(); }));
    metrics_bindings_.add(
        reg.callback("blaze_cache_shards", pool_labels, Kind::kGauge,
                     [this] { return static_cast<double>(shard_count()); }));
  }
  bind_new_namespaces();
}

void ShardedPageCache::bind_new_namespaces() {
  std::lock_guard lock(bind_mu_);
  if (!metrics_bound_) return;
  // Collect the new blocks under devices_mu_, register outside it.
  std::vector<const Namespace*> fresh;
  {
    std::lock_guard devices(devices_mu_);
    for (std::size_t i = bound_namespaces_; i < namespaces_.size(); ++i) {
      fresh.push_back(&namespaces_[i]);
    }
    bound_namespaces_ = namespaces_.size();
  }
  metrics::Registry& reg = metrics::Registry::instance();
  using metrics::Kind;
  using Field = std::atomic<std::uint64_t> NamespaceCounters::*;
  constexpr std::pair<const char*, Field> kSeries[] = {
      {"blaze_cache_hits_total", &NamespaceCounters::hits},
      {"blaze_cache_misses_total", &NamespaceCounters::misses},
      {"blaze_cache_dedup_hits_total", &NamespaceCounters::dedup_hits},
      {"blaze_cache_ghost_hits_total", &NamespaceCounters::ghost_hits},
  };
  for (const Namespace* ns : fresh) {
    const metrics::Labels labels{{"cache", opts_.name}, {"ns", ns->name}};
    for (const auto& [series, field] : kSeries) {
      const std::atomic<std::uint64_t>* value = &(ns->counters.*field);
      metrics_bindings_.add(reg.callback(
          series, labels, Kind::kCounter, [value] {
            return static_cast<double>(
                value->load(std::memory_order_relaxed));
          }));
    }
  }
}

}  // namespace blaze::device
