// FlashGraph-like baseline engine (paper Sections II-D and III-A).
//
// Semi-external engine with *message passing* instead of online binning:
// every vertex is owned by the computation worker whose contiguous vertex
// range contains it ("assigning each vertex to one of the computation
// threads based on the vertex ID"). During the IO/scatter phase, workers
// turn frontier edges into (dst, value) messages appended to per-
// (producer, owner) queues; then everything waits at a barrier and each
// owner drains the messages for its vertices. On power-law graphs, owners
// of hub-heavy ranges become stragglers, and the SSD sits idle while they
// finish — the "skewed computation" root cause behind Figure 2.
//
// An LRU page cache in front of the device — a device::CachedDevice over a
// private single-shard LRU pool — replicates the FlashGraph behaviour that
// beats Blaze on high-locality graphs (sk2005).
#pragma once

#include <atomic>
#include <thread>
#include <vector>

#include "core/stats.h"
#include "core/vertex_map.h"
#include "core/vertex_subset.h"
#include "device/cached_device.h"
#include "format/on_disk_graph.h"
#include "format/page_scan.h"
#include "io/buffer_pool.h"
#include "io/read_engine.h"
#include "util/busy_wait.h"
#include "util/mpmc_queue.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace blaze::baseline {

struct FlashGraphConfig {
  std::size_t compute_workers = 4;
  std::size_t cache_bytes = 16ull << 20;      ///< LRU page cache (min 4 pages)
  std::size_t io_buffer_bytes = 16ull << 20;  ///< in-flight page buffers

  /// Straggler equivalence model for single-core hosts. On FlashGraph's
  /// real multi-core testbed the message-drain barrier lasts as long as
  /// the busiest owner (max over owners), with the other cores idle. A
  /// single-core host serializes the drain, so it pays the *sum* instead —
  /// which understates the skew penalty by the idle-core waste
  /// (workers x max - sum). When enabled, that shortfall is burned
  /// explicitly, self-calibrated from the measured drain rate. Leave off
  /// when running on a real multi-core machine.
  bool model_straggler = false;
};

/// FlashGraph-style engine over an on-disk graph. Programs use the same
/// scatter/cond/gather concept as Blaze's edge_map (gather runs owner-
/// exclusive, so it needs no atomics here either — the imbalance, not
/// synchronization, is this design's weakness).
class FlashGraphEngine {
 public:
  FlashGraphEngine(const format::OnDiskGraph& g, FlashGraphConfig cfg)
      : g_(g),
        cfg_(cfg),
        cache_(g.device_ptr(), cfg.cache_bytes, device::EvictionPolicy::kLru),
        pool_(cfg.compute_workers),
        io_pool_(cfg.io_buffer_bytes) {}

  vertex_t num_vertices() const { return g_.num_vertices(); }
  const format::OnDiskGraph& graph() const { return g_; }
  device::CachedDevice& cache() { return cache_; }
  ThreadPool& pool() { return pool_; }

  /// Runs one message-passing iteration of `prog` over `frontier`.
  template <typename Program>
  core::VertexSubset edge_map(const core::VertexSubset& frontier,
                              Program& prog, bool output,
                              core::QueryStats* stats = nullptr) {
    using value_type = typename Program::value_type;
    static_assert(sizeof(value_type) == 4);
    Timer timer;
    const vertex_t n = g_.num_vertices();
    const std::size_t workers = cfg_.compute_workers;
    core::VertexSubset out(n);
    if (stats) ++stats->edge_map_calls;
    if (frontier.empty()) return out;

    // Page frontier (vertex -> pages holding its adjacency).
    ConcurrentBitmap page_bits(g_.num_pages());
    frontier.for_each_parallel(pool_, [&](vertex_t v) {
      if (g_.degree(v) == 0) return;
      auto [first, last] = g_.page_range(v);
      for (std::uint64_t p = first; p <= last; ++p) page_bits.set(p);
    });
    std::vector<std::uint64_t> need_io;
    page_bits.for_each([&](std::size_t p) { need_io.push_back(p); });

    // ---- Phase A: IO + scatter into per-owner message queues -------------
    struct Message {
      vertex_t dst;
      std::uint32_t value;
    };
    // msgs[producer * workers + owner]
    std::vector<std::vector<Message>> msgs(workers * workers);
    const vertex_t own_range = static_cast<vertex_t>(
        (static_cast<std::uint64_t>(n) + workers - 1) / workers);

    MpmcQueue<std::uint32_t> filled(io_pool_.num_buffers() + 1);
    std::atomic<bool> io_done{false};
    std::uint64_t io_bytes = 0, io_pages = 0, io_requests = 0;

    std::jthread io_thread([&] {
      // Cache-hit pages are served from DRAM; misses go to the device in
      // single-page requests (FlashGraph's page-grained IO) and are
      // inserted into the cache.
      auto channel = g_.device().open_channel();
      std::vector<std::uint64_t> done;
      auto reap = [&](std::size_t min_done) {
        done.clear();
        channel->wait(min_done, done);
        for (std::uint64_t user : done) {
          auto id = static_cast<std::uint32_t>(user);
          const io::BufferMeta& meta = io_pool_.meta(id);
          cache_.fill(meta.first_page, io_pool_.data(id));
          while (!filled.push(id)) std::this_thread::yield();
        }
      };
      for (std::uint64_t p : need_io) {
        std::uint32_t buf = io_pool_.acquire_blocking();
        io::BufferMeta& meta = io_pool_.meta(buf);
        meta.first_page = p;
        meta.num_pages = 1;
        if (cache_.lookup(p, io_pool_.data(buf))) {
          while (!filled.push(buf)) std::this_thread::yield();
          continue;
        }
        device::AsyncRead req;
        req.offset = p * kPageSize;
        req.length = kPageSize;
        req.buffer = io_pool_.data(buf);
        req.user = buf;
        channel->submit(req);
        io_bytes += kPageSize;
        ++io_pages;
        ++io_requests;
        if (channel->pending() >= io::kMaxInflightIo) reap(1);
        else reap(0);
      }
      while (channel->pending() > 0) reap(1);
      io_done.store(true, std::memory_order_release);
    });

    pool_.run_on_all([&](std::size_t worker) {
      for (;;) {
        auto buf = filled.pop();
        if (!buf) {
          if (io_done.load(std::memory_order_acquire)) {
            buf = filled.pop();
            if (!buf) break;
          } else {
            std::this_thread::yield();
            continue;
          }
        }
        const io::BufferMeta& meta = io_pool_.meta(*buf);
        format::for_each_edge(
            g_.index(), g_.page_map(), meta.first_page, io_pool_.data(*buf),
            kPageSize, [&](vertex_t v) { return frontier.contains(v); },
            [&](vertex_t src, vertex_t dst) {
              if (!prog.cond(dst)) return;
              const value_type val = prog.scatter(src, dst);
              const std::size_t owner = dst / own_range;
              msgs[worker * workers + owner].push_back(
                  Message{dst, std::bit_cast<std::uint32_t>(val)});
            });
        io_pool_.release(*buf);
      }
    });
    io_thread.join();

    // ---- Phase B: barrier, then owners drain their messages --------------
    // This is where the straggler effect lives: the owner of the hub-heavy
    // range processes far more messages than the rest while the device
    // idles.
    Timer drain_timer;
    pool_.run_on_all([&](std::size_t owner) {
      for (std::size_t producer = 0; producer < workers; ++producer) {
        for (const Message& m : msgs[producer * workers + owner]) {
          if (prog.gather(m.dst, std::bit_cast<value_type>(m.value)) &&
              output) {
            out.add(m.dst);
          }
        }
      }
    });
    if (cfg_.model_straggler) {
      std::uint64_t total = 0, max_owner = 0;
      for (std::size_t owner = 0; owner < workers; ++owner) {
        std::uint64_t own = 0;
        for (std::size_t producer = 0; producer < workers; ++producer) {
          own += msgs[producer * workers + owner].size();
        }
        total += own;
        max_owner = std::max(max_owner, own);
      }
      if (total > 0) {
        const double per_msg_ns = drain_timer.seconds() * 1e9 /
                                  static_cast<double>(total);
        const double shortfall =
            static_cast<double>(workers) * static_cast<double>(max_owner) -
            static_cast<double>(total);
        if (shortfall > 0) {
          busy_spin_ns(static_cast<std::uint64_t>(shortfall * per_msg_ns));
        }
      }
    }

    if (stats) {
      stats->bytes_read += io_bytes;
      stats->pages_read += io_pages;
      stats->io_requests += io_requests;
      stats->seconds += timer.seconds();
    }
    return out;
  }

  /// In-memory VertexMap, identical semantics to the Blaze one.
  template <typename Fn>
  core::VertexSubset vertex_map(const core::VertexSubset& frontier, Fn&& f,
                                core::QueryStats* stats = nullptr) {
    return core::vertex_map(pool_, frontier, std::forward<Fn>(f), stats);
  }

 private:
  const format::OnDiskGraph& g_;
  FlashGraphConfig cfg_;
  device::CachedDevice cache_;
  ThreadPool pool_;
  io::IoBufferPool io_pool_;
};

}  // namespace blaze::baseline
