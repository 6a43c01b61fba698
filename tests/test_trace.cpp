// blaze::trace: ring semantics, span pairing, the disabled gate, the
// per-query span trees, and the Chrome trace-event JSON schema (parsed
// with an independent minimal JSON reader, not the exporter's own code).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "algorithms/bfs.h"
#include "core/runtime.h"
#include "device/cached_device.h"
#include "device/mem_device.h"
#include "device/page_cache.h"
#include "format/on_disk_graph.h"
#include "graph/generators.h"
#include "test_helpers.h"
#include "trace/chrome_export.h"
#include "trace/tracer.h"
#include "util/spsc_ring.h"

namespace blaze {
namespace {

// ---- Minimal recursive-descent JSON reader (test-local oracle) -----------

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      v = nullptr;

  bool is_object() const {
    return std::holds_alternative<std::shared_ptr<JsonObject>>(v);
  }
  bool is_array() const {
    return std::holds_alternative<std::shared_ptr<JsonArray>>(v);
  }
  const JsonObject& object() const {
    return *std::get<std::shared_ptr<JsonObject>>(v);
  }
  const JsonArray& array() const {
    return *std::get<std::shared_ptr<JsonArray>>(v);
  }
  double number() const { return std::get<double>(v); }
  const std::string& str() const { return std::get<std::string>(v); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  /// Parses one value; sets ok=false on any syntax error.
  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) ok = false;
    return v;
  }

  bool ok = true;

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  bool eat(char c) {
    if (peek() != c) {
      ok = false;
      return false;
    }
    ++pos_;
    return true;
  }

  JsonValue value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': return literal("true", JsonValue{true});
      case 'f': return literal("false", JsonValue{false});
      case 'n': return literal("null", JsonValue{nullptr});
      default: return number_value();
    }
  }

  JsonValue literal(const char* word, JsonValue result) {
    skip_ws();
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) {
        ok = false;
        return JsonValue{};
      }
    }
    return result;
  }

  JsonValue string_value() {
    if (!eat('"')) return {};
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) out.push_back(s_[pos_++]);
      else out.push_back(c);
    }
    if (pos_ >= s_.size()) {
      ok = false;
      return {};
    }
    ++pos_;  // closing quote
    return JsonValue{std::move(out)};
  }

  JsonValue number_value() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      ok = false;
      return {};
    }
    try {
      return JsonValue{std::stod(s_.substr(start, pos_ - start))};
    } catch (...) {
      ok = false;
      return {};
    }
  }

  JsonValue object() {
    auto obj = std::make_shared<JsonObject>();
    eat('{');
    if (peek() == '}') {
      ++pos_;
      return JsonValue{obj};
    }
    while (ok) {
      JsonValue key = string_value();
      if (!ok) break;
      eat(':');
      (*obj)[key.str()] = value();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      eat('}');
      break;
    }
    return JsonValue{obj};
  }

  JsonValue array() {
    auto arr = std::make_shared<JsonArray>();
    eat('[');
    if (peek() == ']') {
      ++pos_;
      return JsonValue{arr};
    }
    while (ok) {
      arr->push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      eat(']');
      break;
    }
    return JsonValue{arr};
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---- Fixture helpers -----------------------------------------------------

/// Every test starts from a clean slate: default ring capacity, empty
/// store, gate off (tests that trace flip it on themselves).
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::set_enabled(false);
    trace::set_ring_capacity(16384);
    trace::reset();
  }
  void TearDown() override {
    trace::set_enabled(false);
    trace::reset();
    trace::set_ring_capacity(16384);
  }
};

/// Runs one traced BFS over a deterministic rmat graph and returns the
/// default context's trace id.
trace::QueryId run_traced_bfs(core::Runtime& rt,
                              const format::OnDiskGraph& g) {
  auto r = algorithms::bfs(rt, g, 0);
  EXPECT_GT(r.iterations, 1u);
  return rt.default_context().trace_id();
}

graph::Csr small_graph() { return graph::generate_rmat(9, 8, 42); }

// ---- SpscRing ------------------------------------------------------------

TEST(SpscRingTest, PushConsumeRoundTrip) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.push(i));
  EXPECT_EQ(ring.size(), 5u);
  std::vector<int> got;
  EXPECT_EQ(ring.consume([&](const int& v) { got.push_back(v); }), 5u);
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(SpscRingTest, DropsWhenFullAndCountsDrops) {
  SpscRing<int> ring(4);  // capacity rounds to 4
  ASSERT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.push(i));
  EXPECT_FALSE(ring.push(99));
  EXPECT_FALSE(ring.push(100));
  EXPECT_EQ(ring.dropped(), 2u);
  // The stored prefix is intact — drops never overwrite history.
  std::vector<int> got;
  ring.consume([&](const int& v) { got.push_back(v); });
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
  // Space freed: pushes work again.
  EXPECT_TRUE(ring.push(7));
  EXPECT_EQ(ring.dropped(), 2u);
}

TEST(SpscRingTest, ConcurrentProducerConsumerLosesNothing) {
  SpscRing<std::uint64_t> ring(1024);
  constexpr std::uint64_t kN = 200000;
  std::uint64_t sum = 0, received = 0;
  std::thread consumer([&] {
    while (received < kN) {
      ring.consume([&](const std::uint64_t& v) {
        sum += v;
        ++received;
      });
    }
  });
  for (std::uint64_t i = 1; i <= kN; ++i) {
    while (!ring.push(i)) std::this_thread::yield();
  }
  consumer.join();
  // Nothing lost, duplicated, or reordered into corruption: the checksum
  // over all kN values is exact. (dropped() may be nonzero — it counts
  // refused pushes, and this producer retries them.)
  EXPECT_EQ(received, kN);
  EXPECT_EQ(sum, kN * (kN + 1) / 2);
}

// ---- Gate and drop accounting -------------------------------------------

TEST_F(TraceTest, DisabledGateEmitsNothing) {
  ASSERT_FALSE(trace::enabled());
  trace::begin(trace::Name::kEdgeMap);
  trace::end(trace::Name::kEdgeMap);
  trace::instant(trace::Name::kIteration, 7);
  trace::complete(trace::Name::kAdmissionWait, 0, 100);
  { trace::Span span(trace::Name::kScatter); }
  EXPECT_TRUE(trace::collect().empty());

  // A whole query through the engine with the gate off: still nothing.
  auto csr = small_graph();
  auto g = format::make_mem_graph(csr);
  core::Runtime rt(testutil::test_config());
  run_traced_bfs(rt, g);
  EXPECT_TRUE(trace::collect().empty());
  EXPECT_EQ(trace::dropped_events(), 0u);
}

TEST_F(TraceTest, MidSpanEnableEmitsNoOrphanEnd) {
  // Span samples the gate at construction: enabling mid-span must not
  // produce an unmatched end event.
  auto span = std::make_unique<trace::Span>(trace::Name::kScatter);
  trace::set_enabled(true);
  span.reset();
  EXPECT_TRUE(trace::collect().empty());
}

TEST_F(TraceTest, RingOverflowCountsDrops) {
  trace::set_ring_capacity(64);
  trace::set_enabled(true);
  // A fresh thread gets a fresh (64-slot) ring; emit far more than fits
  // without collecting.
  std::thread emitter([] {
    for (int i = 0; i < 1000; ++i) {
      trace::instant(trace::Name::kIteration, static_cast<std::uint64_t>(i));
    }
  });
  emitter.join();
  EXPECT_EQ(trace::dropped_events(), 1000u - 64u);
  const auto events = trace::collect();
  std::size_t mine = 0;
  for (const auto& e : events) {
    if (e.name == trace::Name::kIteration) ++mine;
  }
  // Exactly the ring's capacity survived, and it is the oldest prefix
  // (drop-newest policy preserves recorded history).
  EXPECT_EQ(mine, 64u);
  for (const auto& e : events) {
    if (e.name == trace::Name::kIteration) EXPECT_LT(e.arg, 64u);
  }
  // reset() zeroes the accounting.
  trace::reset();
  EXPECT_EQ(trace::dropped_events(), 0u);
  EXPECT_TRUE(trace::collect().empty());
}

TEST_F(TraceTest, ResetDiscardsEventsStillInRings) {
  trace::set_enabled(true);
  trace::instant(trace::Name::kIteration, 1);
  trace::instant(trace::Name::kIteration, 2);
  // Never collected: both events are still in this thread's ring.
  trace::reset();
  EXPECT_TRUE(trace::collect().empty());
}

// ---- Span pairing and per-query trees -----------------------------------

TEST_F(TraceTest, SpanTreeClosesSpansWhoseEndsTheRingDropped) {
  trace::set_ring_capacity(4);
  trace::set_enabled(true);
  const trace::QueryId q = trace::next_query_id();
  // A fresh thread gets a fresh 4-slot ring: two begins and two instants
  // fill it, so both end markers are dropped.
  std::thread emitter([q] {
    trace::ScopedQuery scope(q);
    trace::begin(trace::Name::kEdgeMap);
    trace::begin(trace::Name::kScatter);
    trace::instant(trace::Name::kIteration);
    trace::instant(trace::Name::kIteration);
    trace::end(trace::Name::kScatter);
    trace::end(trace::Name::kEdgeMap);
  });
  emitter.join();
  EXPECT_EQ(trace::dropped_events(), 2u);
  const auto events = trace::collect();
  ASSERT_EQ(events.size(), 4u);
  std::uint64_t horizon = 0;
  for (const auto& e : events) horizon = std::max(horizon, e.ts_ns);

  const auto trees = trace::build_span_trees(events);
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].query, q);
  EXPECT_EQ(trees[0].instants, 2u);
  // Both open spans close at the thread's last timestamp, still nested.
  ASSERT_EQ(trees[0].roots.size(), 1u);
  const trace::SpanNode& root = trees[0].roots[0];
  EXPECT_EQ(root.name, trace::Name::kEdgeMap);
  EXPECT_EQ(root.end_ns, horizon);
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].name, trace::Name::kScatter);
  EXPECT_EQ(root.children[0].end_ns, horizon);
}

TEST_F(TraceTest, SpanTreesComeBackInQueryOrder) {
  trace::set_enabled(true);
  const trace::QueryId first = trace::next_query_id();
  const trace::QueryId second = trace::next_query_id();
  // The later query emits first; the trees still sort by id.
  for (const trace::QueryId q : {second, first}) {
    trace::ScopedQuery scope(q);
    trace::Span span(trace::Name::kSessionExecute);
  }
  const auto trees = trace::build_span_trees(trace::collect());
  ASSERT_EQ(trees.size(), 2u);
  EXPECT_EQ(trees[0].query, first);
  EXPECT_EQ(trees[1].query, second);
  for (const auto& t : trees) {
    ASSERT_EQ(t.roots.size(), 1u);
    EXPECT_EQ(t.roots[0].name, trace::Name::kSessionExecute);
  }
}

TEST_F(TraceTest, EngineSpansPairAndNestPerThread) {
  trace::set_enabled(true);
  auto csr = small_graph();
  auto g = format::make_mem_graph(csr);
  core::Runtime rt(testutil::test_config());
  run_traced_bfs(rt, g);
  const auto events = trace::collect();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(trace::dropped_events(), 0u);

  // Pairing invariant: per (tid, name), begins == ends, and a stack walk
  // in per-thread order never pops an empty stack or a mismatched name.
  std::map<std::uint32_t, std::vector<trace::Name>> stacks;
  std::map<trace::Name, std::int64_t> balance;
  for (const auto& e : events) {
    if (e.phase == trace::Phase::kBegin) {
      stacks[e.tid].push_back(e.name);
      ++balance[e.name];
    } else if (e.phase == trace::Phase::kEnd) {
      auto& st = stacks[e.tid];
      ASSERT_FALSE(st.empty()) << "end without begin on tid " << e.tid;
      EXPECT_EQ(st.back(), e.name) << "interleaved (non-nested) span pair";
      st.pop_back();
      --balance[e.name];
    }
  }
  for (const auto& [tid, st] : stacks) {
    EXPECT_TRUE(st.empty()) << "unclosed span on tid " << tid;
  }
  for (const auto& [name, b] : balance) {
    EXPECT_EQ(b, 0) << "unbalanced " << trace::to_string(name);
  }
}

TEST_F(TraceTest, SpanTreeGroupsWorkByQueryAndNestsIo) {
  trace::set_enabled(true);
  auto csr = small_graph();
  auto g = format::make_mem_graph(csr);
  core::Runtime rt(testutil::test_config());
  const trace::QueryId qid = run_traced_bfs(rt, g);

  const auto trees = trace::build_span_trees(trace::collect());
  const trace::QueryTrace* mine = nullptr;
  for (const auto& t : trees) {
    if (t.query == qid) mine = &t;
  }
  ASSERT_NE(mine, nullptr) << "no span tree for the query's trace id";
  EXPECT_GT(mine->instants, 0u);  // iteration boundaries

  std::map<trace::Name, std::size_t> seen;
  std::size_t max_depth = 0;
  auto walk = [&](auto&& self, const trace::SpanNode& n,
                  std::size_t depth) -> void {
    ++seen[n.name];
    max_depth = std::max(max_depth, depth);
    EXPECT_LE(n.start_ns, n.end_ns);
    for (const auto& c : n.children) {
      EXPECT_GE(c.start_ns, n.start_ns);
      EXPECT_LE(c.end_ns, n.end_ns);
      self(self, c, depth + 1);
    }
  };
  for (const auto& root : mine->roots) walk(walk, root, 1);

  // Every layer reported under this one query: EdgeMap spans from the
  // caller, scatter/gather from pool workers, IO submit from the caller,
  // IO job + device service from the reader thread.
  EXPECT_GT(seen[trace::Name::kEdgeMap], 0u);
  EXPECT_GT(seen[trace::Name::kScatter], 0u);
  EXPECT_GT(seen[trace::Name::kGather], 0u);
  EXPECT_GT(seen[trace::Name::kIoSubmit], 0u);
  EXPECT_GT(seen[trace::Name::kIoJob], 0u);
  EXPECT_GT(seen[trace::Name::kDeviceService], 0u);
  EXPECT_GT(max_depth, 1u) << "io_submit should nest inside edge_map";
}

TEST_F(TraceTest, ScopedQueryNestsAndRestores) {
  trace::set_enabled(true);
  EXPECT_EQ(trace::current_query(), 0u);
  const trace::QueryId a = trace::next_query_id();
  const trace::QueryId b = trace::next_query_id();
  ASSERT_NE(a, b);
  {
    trace::ScopedQuery outer(a);
    EXPECT_EQ(trace::current_query(), a);
    trace::instant(trace::Name::kIteration);
    {
      trace::ScopedQuery inner(b);
      EXPECT_EQ(trace::current_query(), b);
      trace::instant(trace::Name::kIteration);
    }
    EXPECT_EQ(trace::current_query(), a);
  }
  EXPECT_EQ(trace::current_query(), 0u);
  const auto events = trace::collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].query, a);
  EXPECT_EQ(events[1].query, b);
}

// ---- Chrome trace-event JSON schema -------------------------------------

TEST_F(TraceTest, ChromeExportSatisfiesSchema) {
  trace::set_enabled(true);
  auto csr = small_graph();
  auto g = format::make_mem_graph(csr);
  core::Runtime rt(testutil::test_config());
  run_traced_bfs(rt, g);

  const std::string json =
      trace::to_chrome_json(trace::collect(), trace::dropped_events());
  JsonParser parser(json);
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok) << "exporter produced invalid JSON";
  ASSERT_TRUE(root.is_object());
  ASSERT_TRUE(root.object().contains("traceEvents"));
  const JsonArray& events = root.object().at("traceEvents").array();
  ASSERT_FALSE(events.empty());

  double last_ts = -1;
  std::map<std::pair<double, double>, std::vector<std::string>> stacks;
  std::size_t spans = 0;
  for (const JsonValue& ev : events) {
    ASSERT_TRUE(ev.is_object());
    const JsonObject& o = ev.object();
    // Required keys on every event.
    ASSERT_TRUE(o.contains("name"));
    ASSERT_TRUE(o.contains("ph"));
    ASSERT_TRUE(o.contains("pid"));
    ASSERT_TRUE(o.contains("tid"));
    const std::string& ph = o.at("ph").str();
    if (ph == "M") continue;  // metadata rows carry no timestamp
    ASSERT_TRUE(o.contains("ts"));
    ASSERT_TRUE(o.contains("cat"));
    const double ts = o.at("ts").number();
    EXPECT_GE(ts, 0.0);
    EXPECT_GE(ts, last_ts) << "ts must be monotonic non-decreasing";
    last_ts = ts;
    const auto key = std::make_pair(o.at("pid").number(),
                                    o.at("tid").number());
    if (ph == "B") {
      stacks[key].push_back(o.at("name").str());
      ++spans;
    } else if (ph == "E") {
      auto& st = stacks[key];
      ASSERT_FALSE(st.empty()) << "E without matching B";
      EXPECT_EQ(st.back(), o.at("name").str());
      st.pop_back();
    } else if (ph == "X") {
      ASSERT_TRUE(o.contains("dur"));
      EXPECT_GE(o.at("dur").number(), 0.0);
    } else {
      EXPECT_EQ(ph, "i") << "unexpected phase " << ph;
    }
  }
  EXPECT_GT(spans, 0u);
  for (const auto& [key, st] : stacks) {
    EXPECT_TRUE(st.empty()) << "unmatched B events in export";
  }
}

TEST_F(TraceTest, ChromeExportDecodesPackedArgs) {
  // kSchedRound instants carry the round index; the exporter must name it
  // instead of dumping the raw integer.
  trace::set_enabled(true);
  trace::instant(trace::Name::kSchedRound, 7);
  const std::string json =
      trace::to_chrome_json(trace::collect(), trace::dropped_events());
  JsonParser parser(json);
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok) << "exporter produced invalid JSON";
  bool saw_sched = false;
  for (const JsonValue& ev : root.object().at("traceEvents").array()) {
    const JsonObject& o = ev.object();
    if (o.at("ph").str() == "M") continue;
    if (o.at("name").str() == "sched_round") {
      ASSERT_TRUE(o.contains("args"));
      EXPECT_EQ(o.at("args").object().at("round").number(), 7.0);
      saw_sched = true;
    }
  }
  EXPECT_TRUE(saw_sched);
}

TEST_F(TraceTest, ChromeExportAttributesCacheOutcomesToShards) {
  device::PageCacheOptions opts;
  opts.capacity_bytes = 64 * kPageSize;
  opts.shards = 2;
  opts.policy = device::EvictionPolicy::kLru;
  auto pool = std::make_shared<device::ShardedPageCache>(opts);
  device::CachedDevice dev(
      std::make_shared<device::MemDevice>("m", 4 * kPageSize), pool);
  trace::set_enabled(true);
  std::vector<std::byte> page(kPageSize);
  dev.read(0, page);  // miss: the device reads it and fills the pool
  dev.read(0, page);  // hit
  const std::string json =
      trace::to_chrome_json(trace::collect(), trace::dropped_events());
  JsonParser parser(json);
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok) << "exporter produced invalid JSON";
  std::map<std::string, double> shard_of;
  for (const JsonValue& ev : root.object().at("traceEvents").array()) {
    const JsonObject& o = ev.object();
    const std::string& name = o.at("name").str();
    if (name != "cache_miss" && name != "cache_hit") continue;
    ASSERT_TRUE(o.contains("args")) << name;
    const JsonObject& args = o.at("args").object();
    EXPECT_EQ(args.at("pages").number(), 1.0) << name;
    ASSERT_TRUE(args.contains("shard")) << name;
    EXPECT_LT(args.at("shard").number(), 2.0) << name;
    EXPECT_FALSE(shard_of.contains(name)) << "one " << name << " expected";
    shard_of[name] = args.at("shard").number();
  }
  ASSERT_EQ(shard_of.size(), 2u) << json;
  // One page, one shard: both outcomes name the same one.
  EXPECT_EQ(shard_of["cache_miss"], shard_of["cache_hit"]);
}

TEST_F(TraceTest, ChromeExportClosesSpansDroppedByLossyRings) {
  // Hand the exporter a deliberately broken stream: an orphan end and an
  // unclosed begin. The sanitized output must still balance.
  trace::set_enabled(true);
  trace::end(trace::Name::kGather);    // orphan end: must be skipped
  trace::begin(trace::Name::kScatter); // never ended: must be closed
  trace::instant(trace::Name::kIteration);
  const std::string json =
      trace::to_chrome_json(trace::collect(), trace::dropped_events());
  JsonParser parser(json);
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok);
  int balance = 0;
  for (const JsonValue& ev : root.object().at("traceEvents").array()) {
    const std::string& ph = ev.object().at("ph").str();
    if (ph == "B") ++balance;
    if (ph == "E") --balance;
  }
  EXPECT_EQ(balance, 0);
}

}  // namespace
}  // namespace blaze
