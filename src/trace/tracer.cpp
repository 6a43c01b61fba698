#include "trace/tracer.h"

#include <algorithm>
#include <memory>
#include <mutex>

#include "util/spsc_ring.h"

namespace blaze::trace {

namespace {

constexpr std::size_t kDefaultRingCapacity = 16384;

/// One emitting thread's ring plus its stable tracer-assigned index.
struct ThreadRing {
  explicit ThreadRing(std::size_t capacity, std::uint32_t tid_)
      : ring(capacity), tid(tid_) {}
  SpscRing<Event> ring;
  std::uint32_t tid;
  std::uint64_t drop_base = 0;  ///< dropped() at the last reset()
};

/// Registry of all rings ever created. Rings are never destroyed (each
/// emitting thread caches a raw pointer for its lifetime), so collection
/// after a thread exits is safe and emission is registration-free after
/// the first event.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadRing>> rings;
  std::vector<Event> collected;  ///< accumulated across collect() calls
  std::size_t ring_capacity = kDefaultRingCapacity;
  std::atomic<std::uint64_t> next_query{1};
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: emitters may outlive main
  return *r;
}

ThreadRing& ring_for_this_thread() {
  thread_local ThreadRing* t_ring = nullptr;
  if (t_ring == nullptr) {
    Registry& reg = registry();
    std::lock_guard lock(reg.mu);
    reg.rings.push_back(std::make_unique<ThreadRing>(
        reg.ring_capacity, static_cast<std::uint32_t>(reg.rings.size())));
    t_ring = reg.rings.back().get();
  }
  return *t_ring;
}

}  // namespace

namespace detail {

void emit_event(Name name, Phase phase, std::uint64_t ts_ns,
                std::uint64_t dur_ns, std::uint64_t arg, QueryId query) {
  ThreadRing& tr = ring_for_this_thread();
  Event e;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.query = query;
  e.arg = arg;
  e.tid = tr.tid;
  e.phase = phase;
  e.name = name;
  tr.ring.push(e);
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void set_ring_capacity(std::size_t events) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  reg.ring_capacity = events < 2 ? 2 : events;
}

QueryId next_query_id() {
  return registry().next_query.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Event> collect() {
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  for (auto& tr : reg.rings) {
    tr->ring.consume([&](const Event& e) { reg.collected.push_back(e); });
  }
  return reg.collected;
}

std::uint64_t dropped_events() {
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  std::uint64_t total = 0;
  for (const auto& tr : reg.rings) total += tr->ring.dropped() - tr->drop_base;
  return total;
}

void reset() {
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  for (auto& tr : reg.rings) {
    tr->ring.consume([](const Event&) {});
    tr->drop_base = tr->ring.dropped();
  }
  reg.collected.clear();
}

namespace {

/// Closes the open-span stack bottom-up, attaching children.
void close_all(std::vector<SpanNode>& stack, std::uint64_t end_ns,
               std::vector<SpanNode>& roots) {
  while (!stack.empty()) {
    SpanNode node = std::move(stack.back());
    stack.pop_back();
    node.end_ns = end_ns;
    if (!stack.empty()) {
      stack.back().children.push_back(std::move(node));
    } else {
      roots.push_back(std::move(node));
    }
  }
}

}  // namespace

std::vector<QueryTrace> build_span_trees(const std::vector<Event>& events) {
  // Group by emitting thread; a stable sort keeps each thread's emission
  // order for equal timestamps (rings preserve program order per thread).
  std::vector<Event> sorted = events;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Event& a, const Event& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.ts_ns < b.ts_ns;
                   });

  // Per-query accumulation: roots from every thread merge under the query
  // of the span's begin event.
  std::vector<QueryTrace> out;
  auto trace_for = [&](QueryId q) -> QueryTrace& {
    for (auto& t : out) {
      if (t.query == q) return t;
    }
    out.push_back(QueryTrace{q, {}, 0});
    return out.back();
  };

  std::size_t i = 0;
  while (i < sorted.size()) {
    const std::uint32_t tid = sorted[i].tid;
    // One thread's stream: nesting-order pairing with an explicit stack.
    std::vector<SpanNode> stack;
    QueryId stack_query = 0;  ///< query of the current open root
    std::uint64_t last_ts = 0;
    auto sink = [&](QueryId q) -> std::vector<SpanNode>& {
      return trace_for(q).roots;
    };
    for (; i < sorted.size() && sorted[i].tid == tid; ++i) {
      const Event& e = sorted[i];
      last_ts = std::max(last_ts, e.ts_ns + e.dur_ns);
      switch (e.phase) {
        case Phase::kBegin: {
          if (stack.empty()) stack_query = e.query;
          SpanNode node;
          node.name = e.name;
          node.start_ns = e.ts_ns;
          node.arg = e.arg;
          node.tid = e.tid;
          stack.push_back(std::move(node));
          break;
        }
        case Phase::kEnd: {
          if (stack.empty()) break;  // dropped begin: ignore the orphan end
          SpanNode node = std::move(stack.back());
          stack.pop_back();
          node.end_ns = e.ts_ns;
          if (!stack.empty()) {
            stack.back().children.push_back(std::move(node));
          } else {
            sink(stack_query).push_back(std::move(node));
          }
          break;
        }
        case Phase::kComplete: {
          SpanNode node;
          node.name = e.name;
          node.start_ns = e.ts_ns;
          node.end_ns = e.ts_ns + e.dur_ns;
          node.arg = e.arg;
          node.tid = e.tid;
          if (!stack.empty()) {
            stack.back().children.push_back(std::move(node));
          } else {
            sink(e.query).push_back(std::move(node));
          }
          break;
        }
        case Phase::kInstant:
          ++trace_for(e.query).instants;
          break;
      }
    }
    // A ring that dropped end markers leaves spans open; close them at the
    // thread's horizon so the tree is still well-formed.
    if (!stack.empty()) close_all(stack, last_ts, sink(stack_query));
  }

  std::sort(out.begin(), out.end(),
            [](const QueryTrace& a, const QueryTrace& b) {
              return a.query < b.query;
            });
  return out;
}

}  // namespace blaze::trace
