#include "device/cached_device.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "trace/tracer.h"
#include "util/backoff.h"

namespace blaze::device {

namespace {

PageCacheOptions private_pool_options(const std::string& name,
                                      std::size_t capacity_bytes,
                                      EvictionPolicy policy) {
  PageCacheOptions opts;
  opts.name = name;
  opts.capacity_bytes = capacity_bytes;
  opts.policy = policy;
  opts.shards = 1;  // exact pre-pool semantics: one lock, one LRU domain
  return opts;
}

/// Counts a resolved run into `c`; kDeferred counts nothing until the run
/// resolves on a retry.
RunState counted(NamespaceCounters& c, RunState s, std::uint32_t num_pages,
                 bool deferred_retry) {
  if (s == RunState::kHit) c.add_hits(num_pages, deferred_retry);
  if (s == RunState::kOwned) c.add_misses(num_pages);
  return s;
}

}  // namespace

// Member declaration order (name_, inner_, pool_, ns_) lets each ctor
// read inner->name() before the move and name_ when building the pool.

CachedDevice::CachedDevice(std::shared_ptr<BlockDevice> inner,
                           std::size_t capacity_bytes, EvictionPolicy policy)
    : name_(inner->name() + "+cache"),
      inner_(std::move(inner)),
      pool_(std::make_shared<ShardedPageCache>(
          private_pool_options(name_, capacity_bytes, policy))),
      ns_(pool_->register_device(inner_->name())),
      stats_(0) {}

CachedDevice::CachedDevice(std::shared_ptr<BlockDevice> inner,
                           std::shared_ptr<ShardedPageCache> pool)
    : name_(inner->name() + "+cache"),
      inner_(std::move(inner)),
      pool_(std::move(pool)),
      ns_(pool_->register_device(inner_->name())),
      stats_(0) {}

CachedDevice::CachedDevice(std::shared_ptr<BlockDevice> inner,
                           std::shared_ptr<ShardedPageCache> pool,
                           const std::string& namespace_name)
    : name_(namespace_name + "+cache"),
      inner_(std::move(inner)),
      pool_(std::move(pool)),
      ns_(pool_->register_device(namespace_name)),
      stats_(0) {}

bool CachedDevice::lookup(std::uint64_t page, std::byte* out) {
  return lookup_run(page, 1, out);
}

bool CachedDevice::lookup_run(std::uint64_t first_page,
                              std::uint32_t num_pages, std::byte* out) {
  const bool hit = pool_->lookup_run(key(first_page), num_pages, out);
  if (hit) ns_.counters->add_hits(num_pages, /*dedup=*/false);
  else ns_.counters->add_misses(num_pages);
  return hit;
}

void CachedDevice::record_unaligned_miss(std::uint64_t offset,
                                         std::uint64_t length) {
  const std::uint64_t first = offset / kPageSize;
  const std::uint64_t last = (offset + length + kPageSize - 1) / kPageSize;
  ns_.counters->add_misses(last - first);
  // Unattributed instant (shard 0-sentinel): this traffic never reaches
  // the pool, but the trace timeline should still show it missing.
  trace::instant(trace::Name::kCacheMiss,
                 trace::cache_arg(last - first, 0));
}

RunState CachedDevice::try_start_run(std::uint64_t first_page,
                                     std::uint32_t num_pages,
                                     std::byte* out) {
  return counted(*ns_.counters,
                 pool_->try_start_run(key(first_page), num_pages, out),
                 num_pages, /*deferred_retry=*/false);
}

RunState CachedDevice::retry_deferred_run(std::uint64_t first_page,
                                          std::uint32_t num_pages,
                                          std::byte* out) {
  return counted(*ns_.counters,
                 pool_->retry_deferred_run(key(first_page), num_pages, out),
                 num_pages, /*deferred_retry=*/true);
}

void CachedDevice::end_run(std::uint64_t first_page,
                           std::uint32_t num_pages) {
  pool_->end_run(key(first_page), num_pages);
}

void CachedDevice::fill(std::uint64_t page, const std::byte* data) {
  if (pool_->fill(key(page), data)) {
    ns_.counters->ghost_hits.fetch_add(1, std::memory_order_relaxed);
  }
}

void CachedDevice::read_page_sync(std::uint64_t page, std::byte* dst) {
  const SyncAcquire a = pool_->acquire_page_sync(key(page), dst);
  if (a != SyncAcquire::kOwned) {
    ns_.counters->add_hits(1, a == SyncAcquire::kDedupHit);
    return;
  }
  ns_.counters->add_misses(1);
  try {
    inner_->read(page * kPageSize, std::span<std::byte>(dst, kPageSize));
  } catch (...) {
    end_run(page, 1);  // waiters reclaim ownership instead of spinning
    throw;
  }
  fill(page, dst);
  end_run(page, 1);
}

void CachedDevice::read(std::uint64_t offset, std::span<std::byte> out) {
  const bool aligned =
      offset % kPageSize == 0 && out.size() % kPageSize == 0;
  if (!aligned) {
    inner_->read(offset, out);
    // Uncacheable traffic still shows up in the hit-rate statistics: every
    // overlapped page is a miss (it went to the inner device). Service
    // time and bytes are recorded on the inner device only — it did the
    // work, and recording the bytes here too double-counted them.
    record_unaligned_miss(offset, out.size());
    return;
  }
  for (std::size_t done = 0; done < out.size(); done += kPageSize) {
    read_page_sync((offset + done) / kPageSize, out.data() + done);
  }
  stats_.record_read(out.size(), 0);
}

namespace {

/// Async facade: hits complete immediately; misses are forwarded to the
/// inner channel and inserted into the cache at completion. Misses whose
/// pages another session is already reading are *deferred* — parked here
/// instead of duplicated on the inner device — and completed from the cache
/// once the owner fills it (cross-query read dedup). The channel itself
/// stays single-submitter (the AsyncChannel contract); only the pool's
/// shard state synchronizes across channels.
class CachedChannel : public AsyncChannel {
 public:
  explicit CachedChannel(CachedDevice& dev)
      : dev_(dev), inner_(dev.inner().open_channel()) {}

  ~CachedChannel() override {
    // If the submitter abandons the channel mid-request (error unwind),
    // release our in-flight claims so deferred peers on other channels can
    // take over the reads instead of waiting forever.
    for (const AsyncRead& r : owned_) {
      dev_.end_run(r.offset / kPageSize, r.length / kPageSize);
    }
  }

  void submit(const AsyncRead& read) override {
    const bool aligned =
        read.offset % kPageSize == 0 && read.length % kPageSize == 0;
    if (aligned) {
      // All-or-nothing on both data and accounting: a partial hit re-reads
      // the whole merged request from the inner device, so pages that
      // happened to be cached must not inflate the hit rate (per-page hit
      // counting here once inflated the ablation's numbers).
      switch (dev_.try_start_run(read.offset / kPageSize,
                                 read.length / kPageSize,
                                 static_cast<std::byte*>(read.buffer))) {
        case RunState::kHit:
          ready_.push_back(read.user);
          return;
        case RunState::kDeferred:
          deferred_.push_back(read);
          return;
        case RunState::kOwned:
          submit_owned(read);
          return;
      }
    }
    dev_.record_unaligned_miss(read.offset, read.length);
    inner_->submit(read);
    unaligned_.push_back(read);
  }

  std::size_t pending() const override {
    return ready_.size() + deferred_.size() + inner_->pending();
  }

  void wait(std::size_t min_completions,
            std::vector<std::uint64_t>& completed) override {
    min_completions = std::min(min_completions, pending());
    std::size_t got = drain_ready(completed) + retry_deferred(completed);
    Backoff backoff;
    while (true) {
      if (inner_->pending() > 0) {
        // Reap at most what the inner channel can still deliver; deferred
        // runs complete via the cache, not the inner channel.
        const std::size_t want =
            std::min(got < min_completions ? min_completions - got : 0,
                     inner_->pending());
        const std::size_t before = completed.size();
        inner_->wait(want, completed);
        got += completed.size() - before;
        finish_inner(completed, before);
        backoff.reset();
      }
      got += retry_deferred(completed);
      if (got >= min_completions) return;
      // Only deferred runs remain: their owners live on other channels'
      // threads, so there is nothing to block on — poll the cache.
      backoff.pause();
    }
  }

 private:
  /// Forwards an owned (marks held) run to the inner channel. A submit that
  /// throws must release the marks first: the read engine retries transient
  /// failures by resubmitting the same request, and stale marks from the
  /// failed attempt would make that retry defer on itself forever.
  void submit_owned(const AsyncRead& read) {
    try {
      inner_->submit(read);
    } catch (...) {
      dev_.end_run(read.offset / kPageSize, read.length / kPageSize);
      throw;
    }
    owned_.push_back(read);
  }

  std::size_t drain_ready(std::vector<std::uint64_t>& completed) {
    completed.insert(completed.end(), ready_.begin(), ready_.end());
    const std::size_t n = ready_.size();
    ready_.clear();
    return n;
  }

  /// Re-polls every deferred run: completes the ones the owners have filled,
  /// claims (and submits) the ones whose owners aborted without filling.
  std::size_t retry_deferred(std::vector<std::uint64_t>& completed) {
    std::size_t done = 0;
    for (std::size_t i = 0; i < deferred_.size();) {
      const AsyncRead& r = deferred_[i];
      switch (dev_.retry_deferred_run(r.offset / kPageSize,
                                      r.length / kPageSize,
                                      static_cast<std::byte*>(r.buffer))) {
        case RunState::kHit:
          completed.push_back(r.user);
          ++done;
          deferred_.erase(deferred_.begin() + i);
          continue;
        case RunState::kOwned:
          // The prior owner aborted; this caller inherits the read. Erase
          // from deferred_ only after a successful submit — on a throw the
          // run stays parked (marks released by submit_owned) and the
          // engine's reclaim path re-polls or abandons the channel.
          submit_owned(r);
          deferred_.erase(deferred_.begin() + i);
          continue;
        case RunState::kDeferred:
          ++i;
          continue;
      }
    }
    return done;
  }

  /// Post-processes inner completions appended at `first`: repopulates the
  /// cache from owned (page-aligned) requests and releases their in-flight
  /// claims. Unaligned payloads never enter the cache — caching one under
  /// the enclosing page number would poison that page with shifted bytes.
  void finish_inner(const std::vector<std::uint64_t>& completed,
                    std::size_t first) {
    for (std::size_t i = first; i < completed.size(); ++i) {
      bool matched = false;
      for (auto it = owned_.begin(); it != owned_.end(); ++it) {
        if (it->user != completed[i]) continue;
        for (std::uint32_t off = 0; off + kPageSize <= it->length;
             off += kPageSize) {
          dev_.fill((it->offset + off) / kPageSize,
                    static_cast<const std::byte*>(it->buffer) + off);
        }
        dev_.end_run(it->offset / kPageSize, it->length / kPageSize);
        owned_.erase(it);
        matched = true;
        break;
      }
      if (matched) continue;
      for (auto it = unaligned_.begin(); it != unaligned_.end(); ++it) {
        if (it->user != completed[i]) continue;
        unaligned_.erase(it);
        break;
      }
    }
  }

  CachedDevice& dev_;
  std::unique_ptr<AsyncChannel> inner_;
  std::vector<std::uint64_t> ready_;  ///< hits completed at submit time
  std::vector<AsyncRead> deferred_;   ///< waiting on another session's read
  std::vector<AsyncRead> owned_;      ///< in-flight on inner, marks held
  std::vector<AsyncRead> unaligned_;  ///< in-flight on inner, uncacheable
};

}  // namespace

std::unique_ptr<AsyncChannel> CachedDevice::open_channel() {
  return std::make_unique<CachedChannel>(*this);
}

}  // namespace blaze::device
