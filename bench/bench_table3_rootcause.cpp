// Table III: system comparison — which engine suffers which root cause.
//
// The paper states the matrix qualitatively; this bench measures every
// cell on the r2 stand-in and derives its Yes/No from the number printed
// beside it:
//   skewed computation    -> the load the busiest compute worker can be
//                            left with in one full-frontier iteration,
//                            over the per-worker mean; Yes at >= 1.5x.
//                            FlashGraph: messages to the busiest owner
//                            range (a vertex's updates go to its owner).
//                            Graphene: edges on the busiest device (its
//                            one compute thread applies them all).
//                            Blaze: the mean plus one bin buffer — any
//                            gather worker drains any full buffer, so one
//                            worker can be left holding at most one
//                            buffer beyond its share.
//   skewed IO             -> busiest/least per-device bytes under BFS; Yes
//                            at >= 1.5x. Graphene: worst iteration of its
//                            partitioned layout; FlashGraph and Blaze: the
//                            whole run over RAID-0.
//   fast IO, slow compute -> the compute rate the engine can put behind
//                            one device, against that device's line
//                            (scaled Optane random-read bandwidth, the
//                            device Figures 4 and 8 run on); Yes when
//                            below it. Graphene: its one paired compute
//                            thread (single-thread in-memory BFS).
//                            FlashGraph and Blaze: all compute workers
//                            running one SpMV pass over an in-memory
//                            graph (best of 3).
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "algorithms/programs.h"
#include "baselines/inmem.h"
#include "bench/bench_baseline_runners.h"

namespace {

using namespace blaze;

constexpr double kSkewYes = 1.5;  ///< max/mean or busiest/least ratio
constexpr std::size_t kDevices = 8;

const char* skew_verdict(double ratio) {
  return ratio >= kSkewYes ? "Yes" : "No";
}
const char* slow_compute_verdict(double compute_gbps, double line_gbps) {
  return compute_gbps < line_gbps ? "Yes" : "No";
}

double max_over_mean(const std::vector<std::uint64_t>& loads) {
  const double sum = static_cast<double>(
      std::accumulate(loads.begin(), loads.end(), std::uint64_t{0}));
  const auto max = *std::max_element(loads.begin(), loads.end());
  return static_cast<double>(max) /
         (sum / static_cast<double>(loads.size()));
}

/// Busiest/least whole-run bytes over the children of a RAID-0 graph.
double raid_skew(format::OnDiskGraph& g) {
  auto* raid = dynamic_cast<device::Raid0Device*>(&g.device());
  std::uint64_t lo = ~0ull, hi = 0;
  for (std::size_t d = 0; d < raid->num_children(); ++d) {
    const auto b = raid->child(d).stats().total_bytes();
    lo = std::min(lo, b);
    hi = std::max(hi, b);
  }
  return static_cast<double>(hi) / static_cast<double>(lo);
}

/// Best of three runs of `run` (which returns seconds), as edge bytes per
/// second.
template <typename RunFn>
double best_gbps(std::uint64_t edges, RunFn&& run) {
  double best = 0.0;
  for (int i = 0; i < 3; ++i) {
    best = std::max(best, bench::gbps(edges * sizeof(vertex_t), run()));
  }
  return best;
}

}  // namespace

int main() {
  using namespace blaze::bench;

  const auto& ds = dataset("r2");
  const auto profile = bench_optane();
  const std::size_t workers = bench_workers();
  const vertex_t n = ds.csr.num_vertices();
  const std::uint64_t m = ds.csr.num_edges();

  // --- Skewed computation ------------------------------------------------
  // FlashGraph: messages per owner range for one full-frontier iteration;
  // the power-law in-degree concentrates them on few owners.
  const vertex_t own_range =
      static_cast<vertex_t>((static_cast<std::uint64_t>(n) + workers - 1) /
                            workers);
  std::vector<std::uint64_t> msgs(workers, 0);
  for (vertex_t v = 0; v < n; ++v) {
    for (vertex_t d : ds.csr.neighbors(v)) msgs[d / own_range] += 1;
  }
  const double fg_skew = max_over_mean(msgs);

  // Graphene: edges per device of its partitioned layout.
  auto pg = format::make_partitioned_graph(ds.csr, profile, kDevices);
  const double graphene_skew =
      max_over_mean(pg.partitioner.device_bytes(kDevices));

  // Blaze: one full-frontier SpMV pass bins every edge once; the records
  // one bin buffer holds bound what a worker can be left with.
  auto mem_g = format::make_mem_graph(ds.csr);
  const core::Config mem_cfg = bench_config(mem_g);
  core::Runtime mem_rt(mem_cfg);
  std::uint64_t records = 0;
  const double blaze_gbps = best_gbps(m, [&] {
    auto r = run_blaze_query(mem_rt, mem_g, mem_g, "SpMV");
    records = r.stats.records_binned;
    return r.seconds;
  });
  const double buffer_records = static_cast<double>(mem_cfg.bin_space_bytes) /
                                (2.0 * static_cast<double>(mem_cfg.bin_count) *
                                 sizeof(core::BinRecord));
  const double mean_records =
      static_cast<double>(records) / static_cast<double>(workers);
  const double blaze_skew = (mean_records + buffer_records) / mean_records;

  // --- Skewed IO ---------------------------------------------------------
  double graphene_io_skew = 1.0;
  {
    baseline::GrapheneConfig cfg;
    cfg.window_bytes = 16 * 1024;
    baseline::GrapheneEngine eng(pg, cfg);
    std::vector<vertex_t> parent(n, kInvalidVertex);
    parent[0] = 0;
    algorithms::BfsProgram prog{parent};
    core::VertexSubset f = core::VertexSubset::single(n, 0);
    while (!f.empty()) {
      eng.begin_epoch();
      f = eng.edge_map(f, prog, true, nullptr);
      std::uint64_t lo = ~0ull, hi = 0;
      for (auto& d : pg.devices) {
        auto b = d->stats().epoch_bytes().back();
        lo = std::min(lo, b);
        hi = std::max(hi, b);
      }
      if (lo > 4 * kPageSize) {
        graphene_io_skew = std::max(
            graphene_io_skew,
            static_cast<double>(hi) / static_cast<double>(lo));
      }
    }
  }
  auto fg_g = format::make_simulated_graph(ds.csr, profile, kDevices);
  {
    baseline::FlashGraphEngine eng(fg_g, bench_fg_config(fg_g));
    algorithms::run_bfs(eng, 0);
  }
  const double fg_io_skew = raid_skew(fg_g);
  auto blaze_g = format::make_simulated_graph(ds.csr, profile, kDevices);
  {
    core::Runtime rt(bench_config(blaze_g));
    algorithms::bfs(rt, blaze_g, 0);
  }
  const double blaze_io_skew = raid_skew(blaze_g);

  // --- Fast IO, slow computation ------------------------------------------
  const double line = profile.rand_read_mbps / 1e3;
  const double graphene_gbps =
      baseline::inmem::bfs_edges_per_second(ds.csr, 0) * sizeof(vertex_t) /
      1e9;
  baseline::FlashGraphEngine fg_mem(mem_g, bench_fg_config(mem_g));
  const double fg_gbps = best_gbps(m, [&] {
    return run_baseline_query(fg_mem, fg_mem, mem_g.index(), "SpMV", 1)
        .seconds;
  });

  std::printf("# Table III: root causes of low IO utilization (r2 stand-in, "
              "%zu compute workers); skew Yes at >= %.1fx, slow compute Yes "
              "below the line\n",
              workers, kSkewYes);
  std::printf("system,skewed_computation,skewed_io,fast_io_slow_compute\n");
  std::printf("FlashGraph,%s (busiest owner/mean messages = %.2fx),"
              "%s (RAID-0 busiest/least = %.2fx),"
              "%s (%zu workers: %.2f GB/s vs %.2f GB/s line)\n",
              skew_verdict(fg_skew), fg_skew, skew_verdict(fg_io_skew),
              fg_io_skew, slow_compute_verdict(fg_gbps, line), workers,
              fg_gbps, line);
  std::printf("Graphene,%s (busiest device/mean edges = %.2fx),"
              "%s (busiest/least device = %.2fx),"
              "%s (1 compute thread/SSD: %.2f GB/s vs %.2f GB/s line)\n",
              skew_verdict(graphene_skew), graphene_skew,
              skew_verdict(graphene_io_skew), graphene_io_skew,
              slow_compute_verdict(graphene_gbps, line), graphene_gbps, line);
  std::printf("Blaze,%s (mean + one bin buffer/mean = %.2fx),"
              "%s (RAID-0 busiest/least = %.2fx),"
              "%s (%zu workers: %.2f GB/s vs %.2f GB/s line)\n",
              skew_verdict(blaze_skew), blaze_skew,
              skew_verdict(blaze_io_skew), blaze_io_skew,
              slow_compute_verdict(blaze_gbps, line), workers, blaze_gbps,
              line);
  return 0;
}
