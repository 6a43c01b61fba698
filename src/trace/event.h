// blaze::trace event model.
//
// One Event is one timestamped record in a per-thread ring: a span
// boundary (begin/end), an instant, or a retroactive complete span with an
// explicit duration (used where the start was observed on a different
// code path than the end, e.g. admission wait). Names are a closed enum —
// interning strings at emit time would put an allocation on the hot path —
// and every event carries the QueryId active on the emitting thread, which
// is how the collector stitches rings from IO readers, compute workers,
// and session threads back into per-query trees.
#pragma once

#include <cstdint>

namespace blaze::trace {

/// Identifies one logical query across every thread that works on its
/// behalf. 0 = "no query" (engine-global work).
using QueryId = std::uint64_t;

enum class Phase : std::uint8_t {
  kBegin,
  kEnd,
  kInstant,
  kComplete,  ///< retroactive span: ts_ns..ts_ns+dur_ns
};

/// Every span/instant name the engine emits, by layer.
enum class Name : std::uint8_t {
  // io::IoPipeline
  kIoSubmit,   ///< posting a page frontier to the readers
  kIoJob,      ///< one reader executing one device batch
  kIoDrain,    ///< consumer blocked in ReadHandle::wait()
  // device
  kDeviceService,  ///< one device read completion (complete; dur = busy)
  kCacheHit,       ///< instant; arg = pages
  kCacheMiss,      ///< instant; arg = pages
  // core EdgeMap
  kEdgeMap,      ///< one edge_map call
  kScatter,      ///< one worker's scatter loop
  kGather,       ///< one worker's gather drain
  kIteration,    ///< instant at iteration boundary; arg = iteration index
  // serve::QueryEngine
  kAdmissionWait,   ///< complete; submit -> session pickup
  kSessionExecute,  ///< one query body on a session thread
  kEngineDrain,     ///< QueryEngine::drain()
  kQuotaReject,     ///< instant; a tenant hit its admission quota
  // serve::GraphCatalog
  kCatalogOpen,   ///< instant; a graph became resident
  kCatalogClose,  ///< instant; a graph left the catalog
  // sched::AsyncRunner
  kSchedRound,      ///< one async priority round; arg = round index
  kSchedQueue,      ///< instant after a round; arg = queue occupancy
  kNumNames
};

constexpr std::size_t kNumNames = static_cast<std::size_t>(Name::kNumNames);

constexpr const char* to_string(Name n) {
  switch (n) {
    case Name::kIoSubmit: return "io_submit";
    case Name::kIoJob: return "io_job";
    case Name::kIoDrain: return "io_drain";
    case Name::kDeviceService: return "device_service";
    case Name::kCacheHit: return "cache_hit";
    case Name::kCacheMiss: return "cache_miss";
    case Name::kEdgeMap: return "edge_map";
    case Name::kScatter: return "scatter";
    case Name::kGather: return "gather";
    case Name::kIteration: return "iteration";
    case Name::kAdmissionWait: return "admission_wait";
    case Name::kSessionExecute: return "session_execute";
    case Name::kEngineDrain: return "engine_drain";
    case Name::kQuotaReject: return "quota_reject";
    case Name::kCatalogOpen: return "catalog_open";
    case Name::kCatalogClose: return "catalog_close";
    case Name::kSchedRound: return "sched_round";
    case Name::kSchedQueue: return "sched_queue";
    case Name::kNumNames: break;
  }
  return "unknown";
}

/// Chrome trace-event category for a name (one per emitting layer).
constexpr const char* category_of(Name n) {
  switch (n) {
    case Name::kIoSubmit:
    case Name::kIoJob:
    case Name::kIoDrain: return "io";
    case Name::kDeviceService:
    case Name::kCacheHit:
    case Name::kCacheMiss: return "device";
    case Name::kEdgeMap:
    case Name::kScatter:
    case Name::kGather:
    case Name::kIteration: return "core";
    case Name::kAdmissionWait:
    case Name::kSessionExecute:
    case Name::kEngineDrain:
    case Name::kQuotaReject:
    case Name::kCatalogOpen:
    case Name::kCatalogClose: return "serve";
    case Name::kSchedRound:
    case Name::kSchedQueue: return "sched";
    case Name::kNumNames: break;
  }
  return "other";
}

/// Arg packing for kCacheHit/kCacheMiss: low 32 bits = page count, high
/// 32 bits = shard index + 1 (0 = no shard attribution — e.g. unaligned
/// pass-through misses recorded outside the pool). chrome_export decodes
/// this into {"pages": N, "shard": S} args.
constexpr std::uint64_t cache_arg(std::uint64_t pages,
                                  std::uint32_t shard_plus_1) {
  return (pages & 0xffffffffull) |
         (static_cast<std::uint64_t>(shard_plus_1) << 32);
}
constexpr std::uint64_t cache_arg_pages(std::uint64_t arg) {
  return arg & 0xffffffffull;
}
/// Returns shard index + 1; 0 means "unattributed".
constexpr std::uint32_t cache_arg_shard_plus_1(std::uint64_t arg) {
  return static_cast<std::uint32_t>(arg >> 32);
}

struct Event {
  std::uint64_t ts_ns = 0;   ///< Timer::now_ns() at emit (span start for
                             ///< kComplete)
  std::uint64_t dur_ns = 0;  ///< kComplete only
  QueryId query = 0;
  std::uint64_t arg = 0;  ///< name-specific payload (pages, bytes, index)
  std::uint32_t tid = 0;  ///< tracer-assigned thread index
  Phase phase = Phase::kInstant;
  Name name = Name::kNumNames;
};

}  // namespace blaze::trace
