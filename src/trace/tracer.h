// blaze::trace — low-overhead structured tracing for the whole engine.
//
// The paper's analysis lives and dies on knowing *where time goes*: the
// Figure 2 bandwidth timeline, the Figure 4 compute/IO overlap, and the
// Figure 8 idle-gap comparison are all statements about intervals, not
// totals. QueryStats aggregates cannot answer "why was the device idle
// between these two iterations"; spans can. This subsystem records
// begin/end/instant events into per-thread SPSC rings (util::SpscRing —
// one relaxed load, one slot write per event; a full ring drops and
// counts, never blocks), tags every event with the QueryId active on the
// emitting thread, and stitches the rings back into per-query span trees
// or a Chrome trace-event JSON (chrome_export.h).
//
// Cost model: the whole facility sits behind one process-wide runtime
// gate (trace::enabled(), a relaxed atomic bool). Disabled, every emit
// collapses to a load + predictable branch — the acceptance budget is
// ≤ 2 % on EdgeMap micro-throughput, and the instrumentation points are
// chosen per-buffer / per-call, never per-edge. Enabled, an emit is
// ~30 ns (clock read + ring push).
//
// Threading: any thread may emit (its ring is created on first emit and
// lives until process exit, so late collection is always safe); collect()
// may run concurrently with emitters. ScopedQuery is how a QueryId
// travels: session threads and EdgeMap set it, the IO pipeline snapshots
// it into each job so reader threads service pages under the query that
// asked for them.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "trace/event.h"
#include "util/timer.h"

namespace blaze::trace {

namespace detail {
inline std::atomic<bool> g_enabled{false};
inline thread_local QueryId t_query = 0;
// Out-of-line slow path: looks up (or creates) this thread's ring and
// pushes. Only called when tracing is enabled.
void emit_event(Name name, Phase phase, std::uint64_t ts_ns,
                std::uint64_t dur_ns, std::uint64_t arg, QueryId query);
}  // namespace detail

/// The process-wide runtime gate (Config::trace_enabled sets it via
/// core::Runtime). Relaxed: emitters may observe a flip late, which only
/// means a few events more or fewer around the transition.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Capacity (in events) of rings created *after* this call; existing
/// rings keep theirs. Default 16384 (~768 KB per emitting thread).
void set_ring_capacity(std::size_t events);

/// Fresh process-unique QueryId (never 0).
QueryId next_query_id();

/// The QueryId active on this thread (0 = none).
inline QueryId current_query() { return detail::t_query; }

/// RAII: tags this thread's emits with `q` for the scope's duration.
class ScopedQuery {
 public:
  explicit ScopedQuery(QueryId q) : prev_(detail::t_query) {
    detail::t_query = q;
  }
  ~ScopedQuery() { detail::t_query = prev_; }
  ScopedQuery(const ScopedQuery&) = delete;
  ScopedQuery& operator=(const ScopedQuery&) = delete;

 private:
  QueryId prev_;
};

// ---- Emission (all gated; free when disabled) ----------------------------

inline void begin(Name name, std::uint64_t arg = 0) {
  if (enabled()) {
    detail::emit_event(name, Phase::kBegin, Timer::now_ns(), 0, arg,
                       current_query());
  }
}

inline void end(Name name) {
  if (enabled()) {
    detail::emit_event(name, Phase::kEnd, Timer::now_ns(), 0, 0,
                       current_query());
  }
}

inline void instant(Name name, std::uint64_t arg = 0) {
  if (enabled()) {
    detail::emit_event(name, Phase::kInstant, Timer::now_ns(), 0, arg,
                       current_query());
  }
}

/// Retroactive span [start_ns, start_ns + dur_ns] — for intervals whose
/// start was observed on a different code path than the end (admission
/// wait: submit() stamps the start, the session thread emits on pickup).
inline void complete(Name name, std::uint64_t start_ns, std::uint64_t dur_ns,
                     std::uint64_t arg = 0, QueryId query = 0) {
  if (enabled()) {
    detail::emit_event(name, Phase::kComplete, start_ns, dur_ns, arg,
                       query != 0 ? query : current_query());
  }
}

/// RAII begin/end pair. Samples the gate once at construction so a
/// mid-span enable cannot emit an unmatched end.
class Span {
 public:
  explicit Span(Name name, std::uint64_t arg = 0)
      : name_(name), active_(enabled()) {
    if (active_) begin(name_, arg);
  }
  ~Span() {
    if (active_) end(name_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const Name name_;
  const bool active_;
};

// ---- Collection ----------------------------------------------------------

/// Drains every thread's ring into the tracer's accumulated store and
/// returns a copy of everything collected since the last reset(), in
/// per-thread emission order (stable-sort by ts_ns for a global order).
/// Safe to call while emitters run: events emitted during the call land
/// in this snapshot or the next.
std::vector<Event> collect();

/// Events refused because a ring was full, since the last reset().
std::uint64_t dropped_events();

/// Discards accumulated events and zeroes the drop accounting. Rings
/// themselves persist (threads hold pointers into them for life).
void reset();

// ---- Analysis ------------------------------------------------------------

/// One stitched span: a matched begin/end (or complete) with the spans it
/// encloses on the same thread.
struct SpanNode {
  Name name = Name::kNumNames;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t arg = 0;
  std::uint32_t tid = 0;
  std::vector<SpanNode> children;
};

/// All spans attributed to one query, as per-thread forests merged under
/// the query (QueryId 0 collects engine-global work).
struct QueryTrace {
  QueryId query = 0;
  std::vector<SpanNode> roots;
  std::size_t instants = 0;  ///< instant events attributed to this query
};

/// Stitches a collected event stream into per-query span trees: events
/// are grouped by emitting thread, paired begin-to-end by nesting order,
/// and unmatched begins are closed at the thread's last timestamp (a ring
/// that dropped its end marker still yields a tree). Sorted by QueryId.
std::vector<QueryTrace> build_span_trees(const std::vector<Event>& events);

}  // namespace blaze::trace
