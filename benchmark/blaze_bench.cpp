// blaze_bench: runs one benchmark workload and prints its raw measurements
// as one JSON line; benchmark/run.py turns them into named metrics.
//
//   blaze_bench --workload NAME --seed N --seconds S --trace 0|1 [--shift K]
//
// One workload per process, so RSS, page caches and lazily built pools
// never leak from one workload into the next. The seed picks the BFS/SSSP
// sources and the Poisson arrival times; the engine only ever sees those
// generated inputs. Every query result is checked against the in-memory
// oracles of baselines/inmem, computed once per process and excluded from
// set-up time; a mismatch counts as a failed query.
//
// --trace 1 wraps each leaf device (and, where there is one, the page
// cache above it) in a TimedDevice and reports per-layer counters read at
// each layer's public boundary. --shift K shrinks every dataset by another
// K powers of two (run.py --smoke).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/bfs.h"
#include "algorithms/kcore.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "algorithms/wcc.h"
#include "baselines/inmem.h"
#include "core/runtime.h"
#include "device/ssd_profile.h"
#include "format/on_disk_graph.h"
#include "graph/generators.h"
#include "serve/query_engine.h"
#include "timed_device.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace blaze;
using bench::TimedDevice;

enum class Kind { kBfs, kPageRank, kWcc, kSssp, kKcore };
constexpr const char* kKindNames[] = {"bfs", "pagerank", "wcc", "sssp",
                                      "kcore"};
const char* name_of(Kind k) { return kKindNames[static_cast<int>(k)]; }

/// One workload: a graph on one device per direction, plus the query mix
/// that makes one layer do most of the work. Why each exists is recorded
/// in benchmark/README.md.
struct Workload {
  std::string name;
  std::string dataset;
  unsigned shift = 0;  ///< dataset scale_shift
  bool ssd = true;     ///< SimulatedSsd (Optane P4800X / 20) vs MemDevice
  format::AdjacencyEncoding encoding = format::AdjacencyEncoding::kFlat;
  core::ExecutionMode mode = core::ExecutionMode::kBsp;
  /// Batch workloads: one round of the closed loop. serve-cached: the
  /// kinds its arrivals draw from (one PageRank per kMixBlock arrivals).
  std::vector<Kind> round;
  algorithms::PageRankOptions pagerank;
  std::uint32_t kcore_max_k = 0;  ///< k-core peels shells up to this k
  std::size_t sources = 4;        ///< seeded BFS/SSSP sources per run
  double cache_frac = 0;  ///< page-cache budget / adjacency bytes; 0 = none
  bool serve = false;     ///< open loop through serve::QueryEngine
};

// serve-cached traffic: open-loop Poisson arrivals from one generator
// thread into two engine sessions of two compute workers each.
constexpr double kServeRateQps = 20.0;
constexpr std::size_t kServeWarmup = 40;
constexpr std::size_t kMixBlock = 5;  ///< one PageRank per 5 arrivals
constexpr std::size_t kServeSessions = 2;
constexpr std::size_t kServeWorkers = 2;
// Batch workloads: one closed-loop client, 3 compute workers, and the IO
// reader thread make four threads on a four-core host.
constexpr std::size_t kBatchWorkers = 3;
// Set-ups per run (setup_s is their median): at least kMinSetups, and more
// while they add up to less than kSetupBudgetS.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 200;
constexpr double kSetupBudgetS = 0.5;
constexpr double kPrTolBsp = 1e-3;    ///< rel. L1 vs sequential PageRank-delta
constexpr double kPrTolAsync = 1e-2;  ///< async truncates residual differently

std::vector<Workload> workloads() {
  using K = Kind;
  algorithms::PageRankOptions pr5;
  pr5.max_iterations = 5;
  algorithms::PageRankOptions pr_converge;
  pr_converge.epsilon = 1e-3;
  pr_converge.max_iterations = 100;
  algorithms::PageRankOptions pr3;
  pr3.max_iterations = 3;

  std::vector<Workload> w(5);
  w[0].name = "ssd-flat";
  w[0].dataset = "r3";
  w[0].round = {K::kBfs, K::kPageRank, K::kWcc};
  w[0].pagerank = pr5;

  w[1].name = "mem-flat";
  w[1].dataset = "r2";
  w[1].ssd = false;
  // Six BFS in nine queries put latency_p50_ms at the BFS upper quartile.
  // Four in seven put it at the 88th percentile, near the edge of the BFS
  // mode, where it followed the BFS tail.
  w[1].round = {K::kBfs,      K::kBfs, K::kBfs,  K::kBfs, K::kBfs,
                K::kBfs, K::kPageRank, K::kWcc, K::kKcore};
  w[1].pagerank = pr5;
  w[1].kcore_max_k = 32;

  w[2].name = "mem-dvarint";
  w[2].dataset = "r2";
  w[2].ssd = false;
  w[2].encoding = format::AdjacencyEncoding::kDeltaVarint;
  w[2].round = {K::kBfs, K::kBfs, K::kBfs, K::kBfs, K::kPageRank, K::kWcc};
  w[2].pagerank = pr5;

  w[3].name = "ssd-async";
  w[3].dataset = "r2";
  w[3].shift = 2;
  w[3].mode = core::ExecutionMode::kAsync;
  // SSSP time depends on its source; two per round from six sources give
  // the median over six sources, not the middle one of three.
  w[3].round = {K::kWcc, K::kSssp, K::kSssp, K::kPageRank};
  w[3].pagerank = pr_converge;
  w[3].sources = 6;

  w[4].name = "serve-cached";
  w[4].dataset = "r2";
  w[4].shift = 3;
  w[4].round = {K::kBfs, K::kPageRank};
  w[4].pagerank = pr3;
  w[4].sources = 16;
  w[4].cache_frac = 0.75;
  w[4].serve = true;
  return w;
}

bool needs(const Workload& w, Kind k) {
  return std::find(w.round.begin(), w.round.end(), k) != w.round.end();
}
bool needs_transpose(const Workload& w) {
  return needs(w, Kind::kWcc) || needs(w, Kind::kKcore);
}

double secs(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---------------------------------------------------------------- oracle --

struct Data {
  graph::Csr g;
  graph::Csr gt;  ///< transpose; empty unless WCC or k-core runs
};

struct Oracle {
  std::vector<vertex_t> sources;
  std::vector<std::vector<std::uint32_t>> bfs_dist;   ///< per source
  std::vector<std::vector<std::uint32_t>> sssp_dist;  ///< per source
  std::vector<float> rank;
  std::vector<vertex_t> wcc;
  std::vector<std::uint32_t> coreness;
};

/// Seeded sources among vertices of at least average out-degree: on the
/// R-MAT graphs these reach the giant component, so every BFS/SSSP
/// traverses most of the graph instead of a handful of vertices, and the
/// latency of one kind does not split into trivial and full runs.
std::vector<vertex_t> pick_sources(const graph::Csr& g, std::uint64_t seed,
                                   std::size_t count) {
  Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t min_degree =
      std::max<std::uint64_t>(1, g.num_edges() / n);
  std::vector<vertex_t> out;
  for (int tries = 0; out.size() < count && tries < 1'000'000; ++tries) {
    const auto v = static_cast<vertex_t>(rng.next_below(n));
    if (g.degree(v) >= min_degree) out.push_back(v);
  }
  BLAZE_CHECK(!out.empty(), "no vertex of average degree to start from");
  return out;
}

Oracle make_oracle(const Workload& w, const Data& d, std::uint64_t seed) {
  namespace inmem = baseline::inmem;
  Oracle o;
  o.sources = pick_sources(d.g, seed, w.sources);
  for (vertex_t s : o.sources) {
    if (needs(w, Kind::kBfs)) o.bfs_dist.push_back(inmem::bfs_dist(d.g, s));
    if (needs(w, Kind::kSssp)) o.sssp_dist.push_back(inmem::sssp_dist(d.g, s));
  }
  if (needs(w, Kind::kPageRank)) {
    o.rank = inmem::pagerank_delta(d.g, w.pagerank.damping,
                                   w.pagerank.epsilon,
                                   w.pagerank.max_iterations);
  }
  if (needs(w, Kind::kWcc)) o.wcc = inmem::wcc(d.g);
  if (needs(w, Kind::kKcore)) {
    // The bounded sweep labels everything past max_k as max_k + 1.
    o.coreness = inmem::coreness(d.g, d.gt);
    for (auto& c : o.coreness) c = std::min(c, w.kcore_max_k + 1);
  }
  return o;
}

/// One query's output, kept until it is checked outside the timed region.
struct Output {
  Kind kind = Kind::kBfs;
  std::size_t source = 0;  ///< index into Oracle::sources
  std::vector<vertex_t> ids;        ///< BFS parents, WCC labels
  std::vector<std::uint32_t> u32;   ///< SSSP distances, coreness
  std::vector<float> rank;
  core::QueryStats stats;
  std::uint32_t iterations = 0;  ///< rounds; peeling levels for k-core
};

/// BFS parents are not unique, so the check is structural: the reached
/// set equals the oracle's, and every parent is an in-edge one hop closer
/// to the source.
bool check_bfs(const graph::Csr& g, vertex_t source,
               const std::vector<std::uint32_t>& dist,
               const std::vector<vertex_t>& parent) {
  constexpr std::uint32_t kUnreached = ~0u;
  if (parent.size() != dist.size() || parent[source] != source) return false;
  std::vector<char> proven(parent.size(), 0);
  proven[source] = 1;
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    if (dist[u] == kUnreached) continue;
    for (vertex_t v : g.neighbors(u)) {
      if (parent[v] == u && dist[v] == dist[u] + 1) proven[v] = 1;
    }
  }
  for (std::size_t v = 0; v < parent.size(); ++v) {
    const bool reached = dist[v] != kUnreached;
    if (reached != (parent[v] != kInvalidVertex)) return false;
    if (reached && !proven[v]) return false;
  }
  return true;
}

bool check_rank(const std::vector<float>& got, const std::vector<float>& want,
                double tol) {
  if (got.size() != want.size()) return false;
  double err = 0, norm = 1e-12;
  for (std::size_t v = 0; v < want.size(); ++v) {
    err += std::fabs(static_cast<double>(got[v]) - want[v]);
    norm += std::fabs(static_cast<double>(want[v]));
  }
  return err / norm < tol;
}

bool check(const Workload& w, const Data& d, const Oracle& o,
           const Output& out) {
  switch (out.kind) {
    case Kind::kBfs:
      return check_bfs(d.g, o.sources[out.source], o.bfs_dist[out.source],
                       out.ids);
    case Kind::kPageRank:
      return check_rank(out.rank, o.rank,
                        w.mode == core::ExecutionMode::kAsync ? kPrTolAsync
                                                              : kPrTolBsp);
    case Kind::kWcc: return out.ids == o.wcc;
    case Kind::kSssp: return out.u32 == o.sssp_dist[out.source];
    case Kind::kKcore: return out.u32 == o.coreness;
  }
  return false;
}

// ----------------------------------------------------------------- stack --

/// Everything set-up builds: devices, graphs, and the Runtime or engine.
/// Members are declared so the engine/runtime die before the graphs whose
/// devices their reader threads hold.
struct Stack {
  std::shared_ptr<device::ShardedPageCache> pool;
  std::vector<std::shared_ptr<device::BlockDevice>> leaves;  ///< raw devices
  std::vector<std::shared_ptr<TimedDevice>> leaf_clocks;     ///< trace only
  std::vector<std::shared_ptr<TimedDevice>> outer_clocks;    ///< trace only
  format::OnDiskGraph out_g, in_g;
  double layout_s = 0;  ///< make_*_graph share of set-up
  std::unique_ptr<core::Runtime> rt;
  std::unique_ptr<serve::QueryEngine> engine;
};

core::Config make_config(const Workload& w, const format::OnDiskGraph& g) {
  core::Config cfg;
  cfg.compute_workers = w.serve ? kServeWorkers : kBatchWorkers;
  cfg.bin_count = 1024;
  cfg.bin_space_bytes = std::max<std::size_t>(
      8u << 20, static_cast<std::size_t>(0.05 * g.input_bytes()));
  cfg.io_buffer_bytes = 16u << 20;
  cfg.execution_mode = w.mode;
  return cfg;
}

std::unique_ptr<Stack> build_stack(const Workload& w, const Data& d,
                                   bool trace) {
  auto s = std::make_unique<Stack>();
  const device::SsdProfile profile = device::optane_p4800x().scaled(20.0);
  if (w.cache_frac > 0) {
    device::PageCacheOptions opts;
    opts.name = "bench";
    const auto adjacency_bytes =
        static_cast<double>(d.g.num_edges() * sizeof(vertex_t));
    opts.capacity_bytes =
        static_cast<std::size_t>(w.cache_frac * adjacency_bytes);
    opts.policy = device::EvictionPolicy::kS3Fifo;
    s->pool = std::make_shared<device::ShardedPageCache>(opts);
  }
  auto open = [&](const graph::Csr& g) {
    Timer t;
    format::OnDiskGraph base =
        w.ssd ? format::make_simulated_graph(g, profile, 1, 0, w.encoding)
              : format::make_mem_graph(g, 1, w.encoding);
    s->layout_s += t.seconds();
    s->leaves.push_back(base.device_ptr());
    std::shared_ptr<device::BlockDevice> dev = base.device_ptr();
    if (trace) {
      s->leaf_clocks.push_back(std::make_shared<TimedDevice>(dev));
      dev = s->leaf_clocks.back();
    }
    if (s->pool) dev = std::make_shared<device::CachedDevice>(dev, s->pool);
    if (trace) {
      s->outer_clocks.push_back(std::make_shared<TimedDevice>(dev));
      dev = s->outer_clocks.back();
    }
    if (dev == base.device_ptr()) return base;
    return format::OnDiskGraph(format::GraphIndex(base.index()), dev);
  };
  s->out_g = open(d.g);
  if (needs_transpose(w)) s->in_g = open(d.gt);

  const core::Config cfg = make_config(w, s->out_g);
  if (w.serve) {
    serve::EngineOptions opts;
    opts.max_inflight_queries = kServeSessions;
    opts.workers_per_query = kServeWorkers;
    s->engine = std::make_unique<serve::QueryEngine>(cfg, opts);
    if (s->pool) s->engine->observe_cache(s->pool.get());
  } else {
    s->rt = std::make_unique<core::Runtime>(cfg);
    // Materialize the lazily built arenas here, so set-up pays for them
    // and the first query does not.
    s->rt->acquire_bins();
    s->rt->io_pool();
    for (std::size_t i = 0; i < cfg.compute_workers; ++i) {
      s->rt->scatter_buffer(i);
    }
  }
  return s;
}

Output execute(core::QueryContext& qc, const Workload& w, const Stack& s,
               const Oracle& o, Kind kind, std::size_t source) {
  Output out;
  out.kind = kind;
  out.source = source;
  const vertex_t src = o.sources[source];
  switch (kind) {
    case Kind::kBfs: {
      auto r = algorithms::bfs(qc, s.out_g, src);
      out.ids = std::move(r.parent);
      out.stats = r.stats;
      out.iterations = r.iterations;
      break;
    }
    case Kind::kPageRank: {
      auto r = algorithms::pagerank(qc, s.out_g, w.pagerank);
      out.rank = std::move(r.rank);
      out.stats = r.stats;
      out.iterations = r.iterations;
      break;
    }
    case Kind::kWcc: {
      auto r = algorithms::wcc(qc, s.out_g, s.in_g);
      out.ids = std::move(r.ids);
      out.stats = r.stats;
      out.iterations = r.iterations;
      break;
    }
    case Kind::kSssp: {
      auto r = algorithms::sssp(qc, s.out_g, src);
      out.u32 = std::move(r.dist);
      out.stats = r.stats;
      out.iterations = r.iterations;
      break;
    }
    case Kind::kKcore: {
      auto r = algorithms::kcore(qc, s.out_g, s.in_g, w.kcore_max_k);
      out.u32 = std::move(r.coreness);
      out.stats = r.stats;
      out.iterations = r.max_core;
      break;
    }
  }
  return out;
}

// --------------------------------------------------------------- measure --

/// One measured query. All times in seconds. In the closed loop a query is
/// due, sent and started at once, so only exec is non-zero besides latency.
struct Sample {
  Kind kind = Kind::kBfs;
  double latency = 0;  ///< due -> end
  double queue = 0;    ///< send -> start
  double exec = 0;     ///< start -> end
  double lag = 0;      ///< due -> send (generator lateness)
  double edge_map = 0;
  std::uint32_t iterations = 0;
  std::uint64_t bytes = 0;  ///< demand bytes the query read
  std::uint64_t edges = 0;  ///< edges EdgeMap scattered
};

struct Run {
  std::vector<Sample> samples;
  core::QueryStats io;  ///< merged over measured queries
  std::uint64_t attempted = 0, failed = 0, mismatched = 0, refused = 0;
  double query_wall_s = 0;  ///< wall time with measured queries running
};

void record(Run& run, const Sample& smp, const core::QueryStats& stats) {
  run.samples.push_back(smp);
  run.io.merge(stats);
}

Run measure_batch(const Workload& w, Stack& s, const Data& d,
                  const Oracle& o, double seconds) {
  Run run;
  core::QueryContext& qc = s.rt->default_context();
  std::map<Kind, std::size_t> issued;
  Timer clock;
  // Whole rounds only, so every run measures the same mix; another round
  // starts only if it is expected to end within the time budget.
  for (int rounds = 0;
       rounds == 0 || clock.seconds() * (rounds + 1) / rounds <= seconds;
       ++rounds) {
    for (Kind kind : w.round) {
      const std::size_t source = issued[kind]++ % o.sources.size();
      ++run.attempted;
      const std::uint64_t t0 = Timer::now_ns();
      Output out;
      try {
        out = execute(qc, w, s, o, kind, source);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s query failed: %s\n", name_of(kind), e.what());
        ++run.failed;
        continue;
      }
      const double exec = secs(Timer::now_ns() - t0);
      run.query_wall_s += exec;
      if (!check(w, d, o, out)) {
        std::fprintf(stderr, "%s result differs from the oracle\n",
                     name_of(kind));
        ++run.mismatched;
        continue;
      }
      record(run,
             {kind, exec, 0, exec, 0, out.stats.seconds, out.iterations,
              out.stats.bytes_read, out.stats.edges_scattered},
             out.stats);
    }
  }
  return run;
}

/// One open-loop arrival. Its QueryFn writes the stamps and the output;
/// the generator reads them only after the ticket turned terminal.
struct Arrival {
  Kind kind = Kind::kBfs;
  std::size_t source = 0;
  std::uint64_t due_ns = 0, send_ns = 0, start_ns = 0, end_ns = 0;
  bool refused = false;
  Output out;
  std::shared_ptr<serve::QueryTicket> ticket;
};

/// `count` Poisson arrivals over `count / kServeRateQps` seconds, times
/// relative to the phase start. The count is fixed and the times are sorted
/// uniform draws: a Poisson process conditioned on its count, so runs
/// differ in burstiness but not in total load. Every block of five
/// arrivals holds exactly one PageRank at a seeded position, so each run
/// also carries the same 80/20 mix.
std::vector<Arrival> schedule(Xoshiro256& rng, std::size_t count,
                              std::size_t sources) {
  const double span = static_cast<double>(count) / kServeRateQps;
  std::vector<double> due(count);
  for (double& t : due) t = rng.next_double() * span;
  std::sort(due.begin(), due.end());
  std::vector<Arrival> plan(count);
  std::size_t pagerank_slot = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (i % kMixBlock == 0) pagerank_slot = rng.next_below(kMixBlock);
    plan[i].kind = i % kMixBlock == pagerank_slot ? Kind::kPageRank
                                                  : Kind::kBfs;
    plan[i].source = rng.next_below(sources);
    plan[i].due_ns = static_cast<std::uint64_t>(due[i] * 1e9);
  }
  return plan;
}

/// Sends `plan` on its schedule, counted from now, whether or not earlier
/// arrivals finished, then waits until every admitted one is terminal.
void play(serve::QueryEngine& engine, const Workload& w, const Stack& s,
          const Oracle& o, std::vector<Arrival>& plan) {
  const std::uint64_t base_ns = Timer::now_ns();
  for (Arrival& a : plan) {
    a.due_ns += base_ns;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(a.due_ns)));
    serve::QuerySpec spec;
    spec.label = name_of(a.kind);
    spec.run = [&w, &s, &o, &a](core::QueryContext& qc) {
      a.start_ns = Timer::now_ns();
      a.out = execute(qc, w, s, o, a.kind, a.source);
      a.end_ns = Timer::now_ns();
      return a.out.stats;
    };
    a.send_ns = Timer::now_ns();
    try {
      a.ticket = engine.submit(std::move(spec));
    } catch (const serve::ServeError&) {
      a.refused = true;
    }
  }
  for (Arrival& a : plan) {
    if (a.ticket) a.ticket->wait();
  }
}

/// Open loop: a warm-up phase fills the page cache, then the measured
/// phase starts on a fresh schedule. Latency counts from the due time, so
/// a stall also charges the arrivals queued behind it. `on_warm` runs
/// between the phases.
Run measure_serve(const Workload& w, Stack& s, const Data& d,
                  const Oracle& o, double seconds, std::uint64_t seed,
                  const std::function<void()>& on_warm) {
  Xoshiro256 rng(seed * 0xD1B54A32D192ED03ULL + 29);
  const auto count = std::max<std::size_t>(
      1, static_cast<std::size_t>(kServeRateQps * seconds));
  // As many warm-up arrivals as measured ones, up to kServeWarmup.
  std::vector<Arrival> warm =
      schedule(rng, std::min(kServeWarmup, count), o.sources.size());
  std::vector<Arrival> plan = schedule(rng, count, o.sources.size());
  play(*s.engine, w, s, o, warm);
  on_warm();
  play(*s.engine, w, s, o, plan);

  Run run;
  for (std::vector<Arrival>* phase : {&warm, &plan}) {
    for (const Arrival& a : *phase) {
      ++run.attempted;
      if (a.refused) {
        ++run.refused;
      } else if (a.ticket->state() != serve::QueryState::kDone) {
        ++run.failed;
      } else if (!check(w, d, o, a.out)) {
        std::fprintf(stderr, "%s result differs from the oracle\n",
                     name_of(a.kind));
        ++run.mismatched;
      } else if (phase == &plan) {
        record(run,
               {a.kind, secs(a.end_ns - a.due_ns),
                secs(a.start_ns - a.send_ns), secs(a.end_ns - a.start_ns),
                secs(a.send_ns - a.due_ns), a.out.stats.seconds,
                a.out.iterations, a.out.stats.bytes_read,
                a.out.stats.edges_scattered},
               a.out.stats);
        run.query_wall_s = std::max(run.query_wall_s,
                                    secs(a.end_ns - plan.front().due_ns));
      }
    }
  }
  return run;
}

/// Device and cache counters at one instant; the measured phase reports
/// the difference of two snapshots.
struct Counters {
  std::uint64_t reads = 0, bytes = 0, leaf_ns = 0, outer_ns = 0, busy_ns = 0;
  device::CacheCounters cache;

  static Counters take(const Stack& s) {
    Counters c;
    for (const auto& t : s.leaf_clocks) {
      c.reads += t->clock().reads.load();
      c.bytes += t->clock().bytes.load();
      c.leaf_ns += t->clock().ns.load();
    }
    for (const auto& t : s.outer_clocks) c.outer_ns += t->clock().ns.load();
    for (const auto& d : s.leaves) c.busy_ns += d->stats().busy_ns();
    if (s.pool) c.cache = s.pool->cache_counters();
    return c;
  }

  Counters since(const Counters& a) const {
    Counters c;
    c.reads = reads - a.reads;
    c.bytes = bytes - a.bytes;
    c.leaf_ns = leaf_ns - a.leaf_ns;
    c.outer_ns = outer_ns - a.outer_ns;
    c.busy_ns = busy_ns - a.busy_ns;
    c.cache.hits = cache.hits - a.cache.hits;
    c.cache.misses = cache.misses - a.cache.misses;
    c.cache.dedup_hits = cache.dedup_hits - a.cache.dedup_hits;
    c.cache.ghost_hits = cache.ghost_hits - a.cache.ghost_hits;
    c.cache.evictions = cache.evictions - a.cache.evictions;
    return c;
  }
};

/// BSP runs of one kind: demand bytes and wall seconds, one entry per run.
struct BspRuns {
  std::vector<double> bytes, seconds;
};

/// The sched layer's own baseline: each kind of the async workload again
/// on a BSP runtime over the same graphs, once per source the measured
/// async queries of that kind used (measure_batch cycles sources 0, 1, ...).
std::map<Kind, BspRuns> run_bsp_reference(const Workload& w, const Stack& s,
                                          const Oracle& o, const Run& run) {
  core::Config cfg = make_config(w, s.out_g);
  cfg.execution_mode = core::ExecutionMode::kBsp;
  core::Runtime rt(cfg);
  std::map<Kind, BspRuns> out;
  for (Kind kind : w.round) {
    const auto used = static_cast<std::size_t>(
        std::count_if(run.samples.begin(), run.samples.end(),
                      [&](const Sample& q) { return q.kind == kind; }));
    for (std::size_t src = 0; src < std::min(used, o.sources.size()); ++src) {
      Timer t;
      Output r = execute(rt.default_context(), w, s, o, kind, src);
      out[kind].seconds.push_back(t.seconds());
      out[kind].bytes.push_back(static_cast<double>(r.stats.bytes_read));
    }
  }
  return out;
}

// ---------------------------------------------------------------- output --

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Minimal JSON object writer: numbers keep 17 significant digits.
class Json {
 public:
  Json& num(const char* key, double v) {
    sep(key);
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    s_ += buf;
    return *this;
  }
  Json& str(const char* key, const std::string& v) {
    sep(key);
    s_ += '"' + v + '"';
    return *this;
  }
  Json& raw(const char* key, const std::string& v) {
    sep(key);
    s_ += v;
    return *this;
  }
  Json& nums(const char* key, const std::vector<double>& v) {
    std::string a = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
      a += buf;
    }
    return raw(key, a + "]");
  }
  std::string done() const { return s_ + "}"; }

 private:
  void sep(const char* key) {
    s_ += s_.size() > 1 ? "," : "";
    s_ += '"';
    s_ += key;
    s_ += "\":";
  }
  std::string s_ = "{";
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  unsigned shift = 0;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::atoi(v) != 0;
    else if (k == "--shift") a.shift = static_cast<unsigned>(std::atoi(v));
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: blaze_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--shift K]\n");
    return 2;
  }
  const auto all = workloads();
  auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == args.workload;
  });
  if (it == all.end()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *it;

  Timer t_gen;
  Data d;
  d.g = graph::make_dataset(w.dataset, w.shift + args.shift).csr;
  if (needs_transpose(w)) d.gt = graph::transpose(d.g);
  const double generate_s = t_gen.seconds();

  Timer t_oracle;
  const Oracle o = make_oracle(w, d, args.seed);
  const double oracle_s = t_oracle.seconds();

  // Set-up is repeated and its median reported; the last stack is kept.
  // Small graphs set up in milliseconds, so they repeat until the
  // set-ups add up to kSetupBudgetS and one slow one cannot move it.
  std::vector<double> setup_s, layout_s;
  std::unique_ptr<Stack> s;
  for (double total = 0;
       setup_s.size() < kMinSetups ||
       (total < kSetupBudgetS && setup_s.size() < kMaxSetups);) {
    s.reset();
    Timer t;
    s = build_stack(w, d, args.trace);
    setup_s.push_back(t.seconds());
    layout_s.push_back(s->layout_s);
    total += setup_s.back();
  }

  Counters before = Counters::take(*s);
  Run run = w.serve ? measure_serve(w, *s, d, o, args.seconds, args.seed,
                                    [&] { before = Counters::take(*s); })
                    : measure_batch(w, *s, d, o, args.seconds);
  const Counters c = Counters::take(*s).since(before);

  std::map<Kind, BspRuns> bsp;
  if (args.trace && w.mode == core::ExecutionMode::kAsync) {
    bsp = run_bsp_reference(w, *s, o, run);
  }
  if (s->engine) s->engine->drain();

  std::string queries = "[";
  for (std::size_t i = 0; i < run.samples.size(); ++i) {
    const Sample& q = run.samples[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s[\"%s\",%.17g,%.17g,%.17g,%.17g,%.17g,%u,%llu,%llu]",
                  i ? "," : "", name_of(q.kind), q.latency, q.queue, q.exec,
                  q.lag, q.edge_map, q.iterations,
                  static_cast<unsigned long long>(q.bytes),
                  static_cast<unsigned long long>(q.edges));
    queries += buf;
  }
  queries += "]";

  Json io;
  io.num("pages", static_cast<double>(run.io.pages_read))
      .num("requests", static_cast<double>(run.io.io_requests))
      .num("bytes", static_cast<double>(run.io.bytes_read))
      .num("consumer_wait_s", secs(run.io.io_wait_ns))
      .num("buffer_stall_s", secs(run.io.buffer_stall_ns))
      .num("inflight_peak", static_cast<double>(run.io.inflight_peak))
      .num("prefetch_bytes", static_cast<double>(run.io.prefetch_bytes))
      .num("retries", static_cast<double>(run.io.retries))
      .num("edge_map_calls", static_cast<double>(run.io.edge_map_calls))
      .num("edges", static_cast<double>(run.io.edges_scattered))
      .num("records_binned", static_cast<double>(run.io.records_binned));

  Json dev;
  dev.num("reads", static_cast<double>(c.reads))
      .num("bytes", static_cast<double>(c.bytes))
      .num("wait_s", secs(c.leaf_ns))
      .num("outer_s", secs(c.outer_ns))
      .num("busy_s", secs(c.busy_ns))
      .num("cache_hits", static_cast<double>(c.cache.hits))
      .num("cache_misses", static_cast<double>(c.cache.misses))
      .num("cache_dedup_hits", static_cast<double>(c.cache.dedup_hits))
      .num("cache_ghost_hits", static_cast<double>(c.cache.ghost_hits))
      .num("cache_evictions", static_cast<double>(c.cache.evictions));

  Json sched;
  for (const auto& [kind, ref] : bsp) {
    Json runs;
    runs.nums("bytes", ref.bytes).nums("seconds", ref.seconds);
    sched.raw(name_of(kind), runs.done());
  }

  // The optional layers this workload runs through; run.py reports their
  // metrics only where they exist. The sched layer shows as a non-empty
  // "sched" object instead.
  std::string layers = "[";
  auto add_layer = [&](bool present, const char* name) {
    if (!present) return;
    layers += layers.size() > 1 ? ",\"" : "\"";
    layers += name;
    layers += '"';
  };
  add_layer(w.ssd, "ssd");
  add_layer(s->pool != nullptr, "cache");
  add_layer(w.serve, "serve");
  layers += "]";

  Json out;
  out.str("workload", w.name)
      .raw("layers", layers)
      .num("seed", static_cast<double>(args.seed))
      .num("trace", args.trace ? 1 : 0)
      .num("shift", args.shift)
      .num("generate_s", generate_s)
      .num("oracle_s", oracle_s)
      .nums("setup_s", setup_s)
      .nums("layout_s", layout_s)
      .num("bytes_per_edge", s->out_g.bytes_per_edge())
      .num("attempted", static_cast<double>(run.attempted))
      .num("failed", static_cast<double>(run.failed))
      .num("mismatched", static_cast<double>(run.mismatched))
      .num("refused", static_cast<double>(run.refused))
      .num("query_wall_s", run.query_wall_s)
      .raw("queries", queries)
      .raw("io", io.done())
      .raw("device", dev.done())
      .raw("sched", sched.done())
      .num("peak_rss_mb", peak_rss_mb());
  std::printf("%s\n", out.done().c_str());
  return 0;
}
