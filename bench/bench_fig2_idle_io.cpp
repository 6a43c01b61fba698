// Figure 2: idle IO periods in FlashGraph.
//
// Bandwidth timeline (2 ms buckets) of FlashGraph running PR, WCC, and
// SpMV on the rmat30 stand-in, against NAND and Optane profiles. The
// paper's shape: on NAND the device stays at its (low) line; on Optane the
// timeline shows zero-bandwidth gaps at the end of each iteration while
// the straggler thread drains its messages.
#include <cstdio>

#include "bench/bench_baseline_runners.h"
#include "device/simulated_ssd.h"

int main() {
  using namespace blaze;
  using namespace blaze::bench;

  std::printf("# Figure 2: FlashGraph bandwidth timeline (2 ms buckets)\n");
  std::printf("device,query,bucket_ms,read_GBps\n");

  const std::uint64_t bucket_ns = 2'000'000;  // 2 ms
  const auto& ds = dataset("r3");
  const unsigned pr_iters = 8;

  struct DeviceCase {
    const char* name;
    device::SsdProfile profile;
  };
  const DeviceCase cases[] = {{"NAND", bench_nand()},
                              {"Optane", bench_optane()}};

  double idle_frac[2][3] = {};
  int ci = 0;
  for (const auto& dc : cases) {
    int qi = 0;
    for (const std::string query : {"PR", "WCC", "SpMV"}) {
      auto out_g = format::make_simulated_graph(ds.csr, dc.profile, 1,
                                                bucket_ns);
      auto in_g = format::make_simulated_graph(ds.transpose, dc.profile, 1,
                                               bucket_ns);
      baseline::FlashGraphEngine out_eng(out_g, bench_fg_config(out_g));
      baseline::FlashGraphEngine in_eng(in_g, bench_fg_config(in_g));
      run_baseline_query(out_eng, in_eng, out_g.index(), query, pr_iters);

      auto timeline = out_g.device().stats().timeline_bytes();
      if (query == "WCC") {
        // WCC reads both directions; merge the transpose's timeline.
        auto tl2 = in_g.device().stats().timeline_bytes();
        if (tl2.size() > timeline.size()) timeline.resize(tl2.size());
        for (std::size_t i = 0; i < tl2.size(); ++i) timeline[i] += tl2[i];
      }
      std::size_t idle = 0, active_span = 0;
      bool started = false;
      for (std::size_t b = 0; b < timeline.size(); ++b) {
        double gb_per_s = static_cast<double>(timeline[b]) /
                          (static_cast<double>(bucket_ns) / 1e9) / 1e9;
        std::printf("%s,%s,%zu,%.3f\n", dc.name, query.c_str(), b * 2,
                    gb_per_s);
        if (timeline[b] != 0) started = true;
        if (started) {
          ++active_span;
          if (timeline[b] == 0) ++idle;
        }
      }
      idle_frac[ci][qi] =
          active_span ? static_cast<double>(idle) / active_span : 0.0;
      ++qi;
      std::fflush(stdout);
    }
    ++ci;
  }
  std::printf("# summary: fraction of 2 ms buckets with ZERO device reads "
              "while the query ran\n");
  std::printf("# query,NAND,Optane\n");
  const char* qnames[3] = {"PR", "WCC", "SpMV"};
  for (int q = 0; q < 3; ++q) {
    std::printf("# %s,%.2f,%.2f\n", qnames[q], idle_frac[0][q],
                idle_frac[1][q]);
  }
  return 0;
}
