// Shared infrastructure for the figure/table reproduction benches.
//
// Every bench binary runs with no arguments, uses fixed seeds, and prints
// CSV rows mirroring the series of one paper figure/table. Environment
// overrides (all optional):
//   BLAZE_BENCH_SHIFT        extra power-of-two dataset shrink (default 3)
//   BLAZE_BENCH_DEVICE_SCALE bandwidth divisor for device profiles
//                            (default 20; see EXPERIMENTS.md calibration)
//   BLAZE_BENCH_WORKERS      compute workers (default 16, as in the paper)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/bc.h"
#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "algorithms/spmv.h"
#include "algorithms/wcc.h"
#include "core/runtime.h"
#include "device/ssd_profile.h"
#include "format/on_disk_graph.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "util/timer.h"

namespace blaze::bench {

inline double env_double(const char* name, double def) {
  const char* v = std::getenv(name);
  return v ? std::atof(v) : def;
}
inline long env_long(const char* name, long def) {
  const char* v = std::getenv(name);
  return v ? std::atol(v) : def;
}

/// Extra shrink applied to the DESIGN.md dataset table, to keep bench
/// runtimes short.
inline unsigned bench_shift() {
  return static_cast<unsigned>(env_long("BLAZE_BENCH_SHIFT", 3));
}

/// Device-bandwidth divisor aligning the simulated FND speed with this
/// testbed's compute speed (the paper's ratio of 20 cores : 2.5 GB/s).
inline double device_scale() {
  return env_double("BLAZE_BENCH_DEVICE_SCALE", 20.0);
}

inline std::size_t bench_workers() {
  return static_cast<std::size_t>(env_long("BLAZE_BENCH_WORKERS", 16));
}

inline device::SsdProfile bench_optane() {
  return device::optane_p4800x().scaled(device_scale());
}
inline device::SsdProfile bench_nand() {
  return device::nand_s3520().scaled(device_scale());
}

/// Cached dataset + its transpose (WCC/BC need both directions).
struct BenchDataset {
  std::string name;
  graph::Csr csr;
  graph::Csr transpose;
};

/// Loads (and caches for the binary's lifetime) one stand-in dataset.
inline const BenchDataset& dataset(const std::string& short_name) {
  static std::map<std::string, std::unique_ptr<BenchDataset>> cache;
  auto it = cache.find(short_name);
  if (it == cache.end()) {
    auto d = std::make_unique<BenchDataset>();
    graph::Dataset ds = graph::make_dataset(short_name, bench_shift());
    d->name = short_name;
    d->transpose = graph::transpose(ds.csr);
    d->csr = std::move(ds.csr);
    it = cache.emplace(short_name, std::move(d)).first;
  }
  return *it->second;
}

/// Default Blaze config at bench scale (paper defaults: 1024 bins, bin
/// space 5 % of graph, 1:1 scatter:gather).
inline core::Config bench_config(const format::OnDiskGraph& g) {
  core::Config cfg;
  cfg.compute_workers = bench_workers();
  cfg.bin_count = 1024;
  cfg.bin_space_bytes = std::max<std::size_t>(
      8u << 20, static_cast<std::size_t>(0.05 * g.input_bytes()));
  cfg.io_buffer_bytes = 16u << 20;
  return cfg;
}

/// Result of one query execution.
struct RunResult {
  double seconds = 0;
  core::QueryStats stats;
};

/// Runs one of the five paper queries on a Blaze runtime. `pr_iters`
/// bounds PageRank (the paper uses 1 iteration for Graphene comparisons).
inline RunResult run_blaze_query(core::Runtime& rt,
                                 const format::OnDiskGraph& out_g,
                                 const format::OnDiskGraph& in_g,
                                 const std::string& query,
                                 unsigned pr_iters = 100) {
  RunResult r;
  Timer t;
  if (query == "BFS") {
    r.stats = algorithms::bfs(rt, out_g, 0).stats;
  } else if (query == "PR") {
    algorithms::PageRankOptions opts;
    opts.max_iterations = pr_iters;
    r.stats = algorithms::pagerank(rt, out_g, opts).stats;
  } else if (query == "WCC") {
    r.stats = algorithms::wcc(rt, out_g, in_g).stats;
  } else if (query == "SpMV") {
    std::vector<float> x(out_g.num_vertices(), 1.0f);
    r.stats = algorithms::spmv(rt, out_g, x).stats;
  } else if (query == "BC") {
    r.stats = algorithms::bc(rt, out_g, in_g, 0).stats;
  } else {
    std::fprintf(stderr, "unknown query %s\n", query.c_str());
    std::abort();
  }
  r.seconds = t.seconds();
  return r;
}

/// GB/s helper.
inline double gbps(std::uint64_t bytes, double seconds) {
  return seconds > 0 ? static_cast<double>(bytes) / 1e9 / seconds : 0.0;
}

inline const std::vector<std::string>& queries5() {
  static const std::vector<std::string> q = {"BFS", "PR", "WCC", "SpMV",
                                             "BC"};
  return q;
}

inline const std::vector<std::string>& graphs6() {
  static const std::vector<std::string> g = {"r2", "r3", "ur",
                                             "tw", "sk", "fr"};
  return g;
}

}  // namespace blaze::bench
