// Graphene-like baseline engine (paper Sections III-B and III-C).
//
// Two design choices of Graphene that the paper identifies as root causes
// of low IO utilization on FNDs are reproduced faithfully:
//
//  * Topology-aware 2-D-style partitioning: contiguous equal-edge vertex
//    ranges dealt round-robin onto the devices (format/partitioner). Every
//    device holds the same number of edges, but selective scheduling (BFS
//    frontiers) hits some devices much harder than others — skewed IO
//    (Figure 3).
//
//  * Strict thread pairing: exactly one IO thread and one computation
//    thread per device, connected by a small bounded queue. On slow SSDs
//    this saturates the device; on FNDs the lone computation thread cannot
//    keep up, the queue fills, and the IO thread stalls — the fast
//    producer / slow consumer problem (Section III-C).
//
// Computation uses compare-and-swap updates (Graphene has no binning), via
// the Program's gather_atomic.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/stats.h"
#include "core/vertex_map.h"
#include "core/vertex_subset.h"
#include "format/partitioner.h"
#include "util/mpmc_queue.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace blaze::baseline {

struct GrapheneConfig {
  /// Bounded buffers between each IO/compute pair (small by design).
  std::size_t queue_depth = 4;
  /// Read window: consecutive frontier vertices whose spans fit within
  /// this window share one request.
  std::size_t window_bytes = 64 * 1024;
  /// Extra workers for the in-memory VertexMap phase only (the per-device
  /// pairing is fixed by design).
  std::size_t vertex_map_workers = 4;
};

/// Graphene-style engine over a topology-partitioned graph.
class GrapheneEngine {
 public:
  GrapheneEngine(const format::PartitionedGraph& pg, GrapheneConfig cfg = {})
      : pg_(pg), cfg_(cfg), vm_pool_(cfg.vertex_map_workers) {}

  vertex_t num_vertices() const { return pg_.num_vertices(); }
  const format::PartitionedGraph& graph() const { return pg_; }
  ThreadPool& pool() { return vm_pool_; }

  /// Marks an iteration boundary on every device (Figure 3 epochs).
  void begin_epoch() {
    for (auto& d : pg_.devices) d->stats().begin_epoch();
  }

  template <typename Program>
  core::VertexSubset edge_map(const core::VertexSubset& frontier,
                              Program& prog, bool output,
                              core::QueryStats* stats = nullptr) {
    using value_type = typename Program::value_type;
    static_assert(sizeof(value_type) == 4);
    Timer timer;
    const vertex_t n = pg_.num_vertices();
    core::VertexSubset out(n);
    if (stats) ++stats->edge_map_calls;
    if (frontier.empty()) return out;

    const std::size_t num_devices = pg_.devices.size();

    // Route each frontier vertex to its owning device, with its byte
    // address there.
    std::vector<std::vector<Member>> per_device(num_devices);
    frontier.for_each([&](vertex_t v) {
      std::uint64_t len = static_cast<std::uint64_t>(pg_.index.degree(v)) *
                          sizeof(vertex_t);
      if (len == 0) return;
      auto [dev, off] = pg_.partitioner.locate(pg_.index, v);
      per_device[dev].push_back(Member{v, off, len});
    });
    for (auto& members : per_device) {
      std::sort(members.begin(), members.end(),
                [](const Member& a, const Member& b) {
                  return a.offset < b.offset;
                });
    }

    std::atomic<std::uint64_t> total_bytes{0}, total_requests{0};

    std::vector<std::unique_ptr<PairState>> pairs;
    pairs.reserve(num_devices);
    for (std::size_t d = 0; d < num_devices; ++d) {
      pairs.push_back(std::make_unique<PairState>(cfg_.queue_depth));
    }

    // One IO + one compute thread per device, strictly paired.
    {
      std::vector<std::jthread> threads;
      threads.reserve(2 * num_devices);
      for (std::size_t d = 0; d < num_devices; ++d) {
        PairState* pair = pairs[d].get();
        // IO thread: group members into window-sized page-aligned requests
        // and read them synchronously from this device only.
        threads.emplace_back([&, d, pair] {
          device::BlockDevice& dev = *pg_.devices[d];
          const auto& members = per_device[d];
          std::size_t i = 0;
          std::uint64_t bytes = 0, requests = 0;
          while (i < members.size()) {
            std::uint64_t window_start =
                members[i].offset / kPageSize * kPageSize;
            std::uint64_t window_end =
                round_up(members[i].offset + members[i].bytes,
                         std::uint64_t{kPageSize});
            std::size_t j = i + 1;
            while (j < members.size()) {
              std::uint64_t end = round_up(
                  members[j].offset + members[j].bytes,
                  std::uint64_t{kPageSize});
              if (end - window_start >
                  std::max<std::uint64_t>(cfg_.window_bytes,
                                          window_end - window_start)) {
                break;
              }
              window_end = std::max(window_end, end);
              ++j;
            }
            window_end = std::min(window_end, dev.size());

            std::uint32_t slot = pair->free.acquire();
            Request& req = pair->reqs[slot];
            req.base = window_start;
            req.data.resize(window_end - window_start);
            req.members.assign(members.begin() + static_cast<long>(i),
                               members.begin() + static_cast<long>(j));
            dev.read(window_start, req.data);
            bytes += req.data.size();
            ++requests;
            pair->filled.release(slot);
            i = j;
          }
          pair->filled.close();
          total_bytes.fetch_add(bytes, std::memory_order_relaxed);
          total_requests.fetch_add(requests, std::memory_order_relaxed);
        });
        // Compute thread: apply the program with CAS updates.
        threads.emplace_back([&, pair] {
          for (;;) {
            auto slot = pair->filled.acquire_or_closed();
            if (!slot) break;
            Request& req = pair->reqs[*slot];
            for (const Member& m : req.members) {
              const auto* dsts = reinterpret_cast<const vertex_t*>(
                  req.data.data() + (m.offset - req.base));
              const std::size_t cnt = m.bytes / sizeof(vertex_t);
              for (std::size_t k = 0; k < cnt; ++k) {
                const vertex_t dst = dsts[k];
                if (!prog.cond(dst)) continue;
                const value_type val = prog.scatter(m.v, dst);
                if (prog.gather_atomic(dst, val) && output) out.add(dst);
              }
            }
            pair->free.release(*slot);
          }
        });
      }
    }  // jthreads join here

    if (stats) {
      stats->bytes_read += total_bytes.load();
      stats->io_requests += total_requests.load();
      stats->pages_read += total_bytes.load() / kPageSize;
      stats->seconds += timer.seconds();
    }
    return out;
  }

  template <typename Fn>
  core::VertexSubset vertex_map(const core::VertexSubset& frontier, Fn&& f,
                                core::QueryStats* stats = nullptr) {
    return core::vertex_map(vm_pool_, frontier, std::forward<Fn>(f), stats);
  }

 private:
  /// A frontier vertex routed to its owning device.
  struct Member {
    vertex_t v;
    std::uint64_t offset;  ///< device byte offset of v's adjacency
    std::uint64_t bytes;
  };

  /// One read request: a page-aligned window plus the members inside it.
  struct Request {
    std::vector<std::byte> data;
    std::uint64_t base = 0;  ///< device byte offset of data[0]
    std::vector<Member> members;
  };

  /// Bounded slot exchange between one IO/compute pair.
  struct PairState {
    struct SlotQueue {
      explicit SlotQueue(std::size_t depth) : q(depth + 1) {}
      std::uint32_t acquire() {
        for (;;) {
          if (auto v = q.pop()) return static_cast<std::uint32_t>(*v);
          std::this_thread::yield();
        }
      }
      std::optional<std::uint32_t> acquire_or_closed() {
        for (;;) {
          if (auto v = q.pop()) return static_cast<std::uint32_t>(*v);
          if (closed.load(std::memory_order_acquire)) {
            if (auto v = q.pop()) return static_cast<std::uint32_t>(*v);
            return std::nullopt;
          }
          std::this_thread::yield();
        }
      }
      void release(std::uint32_t slot) {
        bool ok = q.push(slot);
        BLAZE_CHECK(ok, "graphene slot queue overflow");
      }
      void close() { closed.store(true, std::memory_order_release); }
      MpmcQueue<std::uint64_t> q;
      std::atomic<bool> closed{false};
    };

    explicit PairState(std::size_t depth)
        : reqs(depth), free(depth), filled(depth) {
      for (std::uint32_t i = 0; i < depth; ++i) free.release(i);
    }
    std::vector<Request> reqs;
    SlotQueue free;
    SlotQueue filled;
  };

  const format::PartitionedGraph& pg_;
  GrapheneConfig cfg_;
  ThreadPool vm_pool_;
};

}  // namespace blaze::baseline
