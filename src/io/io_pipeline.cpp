#include "io/io_pipeline.h"

#include "io/read_engine.h"
#include "util/backoff.h"

namespace blaze::io {

void ReadHandle::wait() const {
  if (io_done()) return;
  trace::Span span(trace::Name::kIoDrain);
  Backoff backoff;
  while (!io_done()) backoff.pause();
}

IoPipeline::~IoPipeline() {
  // Let every posted job finish before asking the readers to exit: a
  // reader stopped mid-job would strand the buffers it holds.
  quiesce();
  stop_.store(true, std::memory_order_release);
  std::lock_guard lock(readers_mu_);
  for (auto& reader : readers_) {
    std::lock_guard wake(reader->mu);
    reader->cv.notify_one();
  }
  // ~Reader joins each jthread.
}

std::shared_ptr<ReadHandle> IoPipeline::submit(IoBufferPool& pool,
                                               std::vector<ReadBatch> batches,
                                               std::size_t max_inflight) {
  std::size_t active = 0;
  for (const ReadBatch& b : batches) {
    if (b.pages.empty()) continue;
    ++active;
  }
  // The filled queue can hold every pool buffer, so reader pushes never
  // block on queue capacity (only on pool backpressure, by design).
  auto handle = std::shared_ptr<ReadHandle>(
      new ReadHandle(pool.num_buffers() + 1, active));
  if (active == 0) return handle;

  std::size_t total_pages = 0;
  for (const ReadBatch& b : batches) total_pages += b.pages.size();
  trace::Span span(trace::Name::kIoSubmit, total_pages);

  if (metrics::enabled()) {
    // Bind all registry handles BEFORE taking readers_mu_: registry
    // snapshots hold the registry lock while running callbacks, so no code
    // path may enter the registry while holding a lock a callback could
    // want (lock-ordering discipline; see metrics.h header comment).
    std::call_once(metrics_once_, [this] {
      metrics::Registry& reg = metrics::Registry::instance();
      JobCounters& c = job_counters_storage_;
      c.bytes = reg.counter("blaze_io_bytes_total");
      c.pages = reg.counter("blaze_io_pages_total");
      c.requests = reg.counter("blaze_io_requests_total");
      c.retries = reg.counter("blaze_io_retries_total");
      c.failed = reg.counter("blaze_io_failed_requests_total");
      c.gave_up = reg.counter("blaze_io_gave_up_total");
      c.stalls = reg.counter("blaze_io_buffer_stalls_total");
      c.stall_ns = reg.counter("blaze_io_buffer_stall_ns_total");
      job_counters_.store(&c, std::memory_order_release);
    });
    for (const ReadBatch& b : batches) {
      if (!b.pages.empty()) b.device->stats().bind_metrics(b.device->name());
    }
  }

  std::lock_guard lock(readers_mu_);
  for (ReadBatch& b : batches) {
    if (b.pages.empty()) continue;
    auto job = std::make_shared<Job>();
    job->handle = handle;
    job->pool = &pool;
    job->device = b.device;
    job->origin = b.origin;
    job->pages = std::move(b.pages);
    job->max_inflight = max_inflight;
    job->retry = retry_;
    job->verifier = std::move(b.verifier);
    job->query = trace::current_query();
    // One persistent reader per distinct device, keyed by the device
    // itself: concurrent queries on the same SSD share its thread (and its
    // cache locality), queries on different SSDs run fully in parallel.
    Reader& reader = *readers_[slot_for_locked(b.device)];
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    while (!reader.jobs.push(job)) std::this_thread::yield();
    {
      // Lock pairs with the reader's cv predicate re-check: a push that
      // lands between the reader's empty pop and its wait() is never lost.
      std::lock_guard wake(reader.mu);
    }
    reader.cv.notify_one();
  }
  return handle;
}

std::size_t IoPipeline::slot_for_locked(device::BlockDevice* device) {
  auto it = device_slots_.find(device);
  if (it != device_slots_.end()) return it->second;
  auto reader = std::make_unique<Reader>();
  Reader& r = *reader;
  r.thread = std::jthread([this, &r] { reader_main(r); });
  r.tid = r.thread.get_id();
  readers_.push_back(std::move(reader));
  const std::size_t slot = readers_.size() - 1;
  device_slots_.emplace(device, slot);
  if (metrics::enabled()) {
    // Owned gauge, not a callback: a polled callback would need readers_mu_
    // under the registry lock, the exact inversion submit() avoids above.
    if (readers_gauge_ == nullptr) {
      readers_gauge_ = metrics::Registry::instance().gauge("blaze_io_readers");
    }
    readers_gauge_->set(static_cast<double>(readers_.size()));
  }
  return slot;
}

void IoPipeline::reader_main(Reader& reader) {
  Backoff backoff;
  std::uint32_t idle_polls = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    if (auto job = reader.jobs.pop()) {
      backoff.reset();
      idle_polls = 0;
      execute(**job);
      reader.executed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Brief backoff keeps latency low across back-to-back EdgeMap calls;
    // prolonged idleness parks on the condition variable so a dormant
    // Runtime consumes no CPU.
    if (++idle_polls < 64) {
      backoff.pause();
      continue;
    }
    std::unique_lock lock(reader.mu);
    reader.cv.wait(lock, [&] {
      return stop_.load(std::memory_order_acquire) ||
             reader.jobs.approx_size() > 0;
    });
    idle_polls = 0;
    backoff.reset();
  }
}

void IoPipeline::execute(Job& job) {
  ReadHandle& handle = *job.handle;
  // The reader thread does this batch's work on behalf of the submitting
  // query: its device-service spans inherit that identity.
  trace::ScopedQuery scope(job.query);
  trace::Span span(trace::Name::kIoJob, job.pages.size());
  PipelineStats local;
  const std::uint64_t busy0 = job.device->stats().busy_ns();
  try {
    run_reads(*job.device, job.origin, job.pages, *job.pool, handle.filled_,
              job.max_inflight, local, job.retry,
              job.verifier ? &job.verifier : nullptr);
  } catch (...) {
    // run_reads has already reclaimed every buffer it acquired (the pool is
    // whole again); all that is left is surfacing the failure.
    handle.fail(std::current_exception());
  }
  // Thread the device layer's accounting through: the batch's share of
  // modeled/measured service time (approximate if another job touches the
  // same device concurrently, which the engine never does).
  local.device_busy_ns = job.device->stats().busy_ns() - busy0;
  // Per-job publication of the pipeline totals: one acquire load plus a
  // handful of relaxed adds per batch, nothing when metrics are off.
  if (const JobCounters* c = job_counters_.load(std::memory_order_acquire)) {
    c->bytes->add(local.bytes_read);
    c->pages->add(local.pages_read);
    c->requests->add(local.io_requests);
    if (local.retries != 0) c->retries->add(local.retries);
    if (local.failed_requests != 0) c->failed->add(local.failed_requests);
    if (local.gave_up != 0) c->gave_up->add(local.gave_up);
    if (local.buffer_stalls != 0) {
      c->stalls->add(local.buffer_stalls);
      c->stall_ns->add(local.buffer_stall_ns);
    }
  }
  {
    std::lock_guard lock(handle.mu_);
    handle.stats_.merge(local);
  }
  handle.remaining_.fetch_sub(1, std::memory_order_release);
  outstanding_.fetch_sub(1, std::memory_order_release);
}

void IoPipeline::quiesce() const {
  Backoff backoff;
  while (outstanding_.load(std::memory_order_acquire) > 0) backoff.pause();
}

std::size_t IoPipeline::num_readers() const {
  std::lock_guard lock(readers_mu_);
  return readers_.size();
}

std::vector<std::thread::id> IoPipeline::reader_ids() const {
  std::lock_guard lock(readers_mu_);
  std::vector<std::thread::id> ids;
  ids.reserve(readers_.size());
  for (const auto& reader : readers_) ids.push_back(reader->tid);
  return ids;
}

std::uint64_t IoPipeline::jobs_executed(std::size_t slot) const {
  std::lock_guard lock(readers_mu_);
  BLAZE_CHECK(slot < readers_.size(), "reader slot out of range");
  return readers_[slot]->executed.load(std::memory_order_relaxed);
}

}  // namespace blaze::io
