// End-to-end CLI tests: blaze-gen writes artifact-layout files that
// blaze-run consumes, exercising the whole stack through the public
// binaries exactly as the paper's artifact instructions do.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <sys/wait.h>

namespace {

/// Tool paths are provided by CMake.
#ifndef BLAZE_GEN_PATH
#define BLAZE_GEN_PATH "blaze-gen"
#endif
#ifndef BLAZE_RUN_PATH
#define BLAZE_RUN_PATH "blaze-run"
#endif

int run(const std::string& cmd) {
  return std::system((cmd + " > /tmp/blaze_tool_out.txt 2>&1").c_str());
}

std::string read_file(const std::string& path) {
  std::string s;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) s.append(buf, n);
    std::fclose(f);
  }
  return s;
}

std::string output() { return read_file("/tmp/blaze_tool_out.txt"); }

class ToolsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prefix_ = "/tmp/blaze_tools_graph";
    ASSERT_EQ(run(std::string(BLAZE_GEN_PATH) +
                  " -type rmat -scale 12 -edgeFactor 8 -seed 5 " + prefix_),
              0)
        << output();
  }
  void TearDown() override {
    for (const char* suffix :
         {".gr.index", ".gr.adj.0", ".tgr.index", ".tgr.adj.0"}) {
      std::remove((prefix_ + suffix).c_str());
    }
  }
  std::string prefix_;
};

TEST_F(ToolsTest, GenWritesAllFourFiles) {
  for (const char* suffix :
       {".gr.index", ".gr.adj.0", ".tgr.index", ".tgr.adj.0"}) {
    std::FILE* f = std::fopen((prefix_ + suffix).c_str(), "rb");
    ASSERT_NE(f, nullptr) << suffix;
    std::fclose(f);
  }
}

TEST_F(ToolsTest, BfsRunsWithArtifactFlags) {
  ASSERT_EQ(run(std::string(BLAZE_RUN_PATH) +
                " -query bfs -computeWorkers 3 -startNode 0 " + prefix_ +
                ".gr.index " + prefix_ + ".gr.adj.0"),
            0)
      << output();
  EXPECT_NE(output().find("reached"), std::string::npos);
}

TEST_F(ToolsTest, BcNeedsTransposeInputs) {
  // Without transpose flags: usage error.
  EXPECT_NE(run(std::string(BLAZE_RUN_PATH) + " -query bc " + prefix_ +
                ".gr.index " + prefix_ + ".gr.adj.0"),
            0);
  // With them: success.
  EXPECT_EQ(run(std::string(BLAZE_RUN_PATH) +
                " -query bc -computeWorkers 3 -startNode 0 " + prefix_ +
                ".gr.index " + prefix_ + ".gr.adj.0 -inIndexFilename " +
                prefix_ + ".tgr.index -inAdjFilenames " + prefix_ +
                ".tgr.adj.0"),
            0)
      << output();
}

TEST_F(ToolsTest, BinningFlagsAccepted) {
  EXPECT_EQ(run(std::string(BLAZE_RUN_PATH) +
                " -query spmv -computeWorkers 2 -binSpace 8 -binCount 64 "
                "-binningRatio 0.5 " +
                prefix_ + ".gr.index " + prefix_ + ".gr.adj.0"),
            0)
      << output();
  EXPECT_EQ(run(std::string(BLAZE_RUN_PATH) +
                " -query pr -sync -computeWorkers 2 -maxIterations 3 " +
                prefix_ + ".gr.index " + prefix_ + ".gr.adj.0"),
            0)
      << output();
}

/// First integer following `label` in a stats-table row ("  admitted  6").
long long stat_row(const std::string& out, const std::string& label) {
  auto pos = out.find("  " + label);
  if (pos == std::string::npos) return -1;
  pos += 2 + label.size();
  while (pos < out.size() && !std::isdigit(static_cast<unsigned char>(out[pos]))) {
    ++pos;
  }
  if (pos >= out.size()) return -1;
  return std::strtoll(out.c_str() + pos, nullptr, 10);
}

TEST_F(ToolsTest, ServingModeAggregateTableMatchesQueryCount) {
  ASSERT_EQ(run(std::string(BLAZE_RUN_PATH) +
                " -query bfs -computeWorkers 2 --clients 2 --queries 3 " +
                prefix_ + ".gr.index " + prefix_ + ".gr.adj.0"),
            0)
      << output();
  const std::string out = output();
  EXPECT_NE(out.find("serving bfs: 2 clients x 3 queries"),
            std::string::npos)
      << out;
  // The aggregate table reconciles with --clients x --queries.
  EXPECT_EQ(stat_row(out, "admitted"), 6) << out;
  EXPECT_EQ(stat_row(out, "completed"), 6) << out;
  EXPECT_EQ(stat_row(out, "failed"), 0) << out;
  EXPECT_NE(out.find("latency"), std::string::npos) << out;
  EXPECT_NE(out.find("aggregate io"), std::string::npos) << out;
  EXPECT_NE(out.find("aggregate compute"), std::string::npos) << out;
}

TEST_F(ToolsTest, ServingModeRejectsMaxInflightBelowOne) {
  // An engine without sessions admits queries that never run, so the
  // clients would wait forever: a usage error (exit 2) must come first.
  // Under `timeout`, a hang reads as exit 124.
  for (const char* sessions : {"0", "-1"}) {
    const int status =
        run("timeout 20 " + std::string(BLAZE_RUN_PATH) +
            " -query bfs -computeWorkers 2 --clients 2 --queries 1 "
            "--maxInflight " +
            sessions + " " + prefix_ + ".gr.index " + prefix_ + ".gr.adj.0");
    ASSERT_TRUE(WIFEXITED(status)) << sessions;
    EXPECT_EQ(WEXITSTATUS(status), 2) << sessions << "\n" << output();
    EXPECT_NE(output().find("--maxInflight"), std::string::npos) << output();
  }
}

TEST_F(ToolsTest, ServingModeCatalogAndTenantTables) {
  // A second resident graph opened from files (the same fixture under
  // another name), and two weighted tenants the clients map onto.
  ASSERT_EQ(run(std::string(BLAZE_RUN_PATH) +
                " -query bfs -computeWorkers 2 --clients 2 --queries 2 "
                "--tenants a:1,b:3 --catalog side=" +
                prefix_ + ".gr.index," + prefix_ + ".gr.adj.0 " + prefix_ +
                ".gr.index " + prefix_ + ".gr.adj.0"),
            0)
      << output();
  const std::string out = output();
  EXPECT_EQ(stat_row(out, "completed"), 4) << out;
  EXPECT_EQ(stat_row(out, "failed"), 0) << out;
  const std::size_t tenants = out.find("tenants (weighted fair queueing");
  ASSERT_NE(tenants, std::string::npos) << out;
  EXPECT_NE(out.find("\n    a ", tenants), std::string::npos) << out;
  EXPECT_NE(out.find("\n    b ", tenants), std::string::npos) << out;
  const std::size_t catalog = out.find("catalog (2 resident graphs)");
  ASSERT_NE(catalog, std::string::npos) << out;
  EXPECT_NE(out.find("\n    main ", catalog), std::string::npos) << out;
  EXPECT_NE(out.find("\n    side ", catalog), std::string::npos) << out;
}

TEST_F(ToolsTest, ServingModeCatalogSplitsCacheMBEqually) {
  // "main" is the small fixture; "side" has 2^15 vertices x 16 edges, 2 MiB
  // of adjacency, twice its 1 MiB share of --cacheMB 2. Shared, "side"
  // fills what "main" leaves idle; capped, it keeps its share.
  const std::string big = "/tmp/blaze_tools_catalog_big";
  ASSERT_EQ(run(std::string(BLAZE_GEN_PATH) +
                " -type rmat -scale 15 -edgeFactor 16 -seed 7 " + big),
            0)
      << output();
  for (const bool enforce : {false, true}) {
    ASSERT_EQ(run(std::string(BLAZE_RUN_PATH) +
                  " -query bfs -computeWorkers 2 --clients 2 --queries 2 "
                  "--cacheMB 2 " +
                  (enforce ? "--catalog-enforce " : "") + "--catalog side=" +
                  big + ".gr.index," + big + ".gr.adj.0 " + prefix_ +
                  ".gr.index " + prefix_ + ".gr.adj.0"),
              0)
        << output();
    const std::string out = output();
    EXPECT_EQ(stat_row(out, "failed"), 0) << out;
    const std::size_t catalog = out.find("catalog (2 resident graphs)");
    ASSERT_NE(catalog, std::string::npos) << out;
    double budget_sum = 0;
    for (const char* name : {"main", "side"}) {
      const std::size_t row = out.find(std::string("\n    ") + name + " ",
                                       catalog);
      ASSERT_NE(row, std::string::npos) << name << "\n" << out;
      double budget = -1, resident = -1;
      ASSERT_EQ(std::sscanf(out.c_str() + row,
                            " %*s budget %lf MiB cache, resident %lf MiB",
                            &budget, &resident),
                2)
          << out;
      budget_sum += budget;
      EXPECT_GT(resident, 0.0) << name << "\n" << out;
      // Capped, a graph keeps no more than its share (at the table's
      // 0.1 MiB print resolution).
      if (enforce) {
        EXPECT_LE(resident, budget) << name << "\n" << out;
      }
    }
    EXPECT_DOUBLE_EQ(budget_sum, 2.0) << out;
  }
  for (const char* suffix :
       {".gr.index", ".gr.adj.0", ".tgr.index", ".tgr.adj.0"}) {
    std::remove((big + suffix).c_str());
  }
}

TEST_F(ToolsTest, TraceFlagWritesChromeJson) {
  const std::string trace = "/tmp/blaze_tools_trace.json";
  std::remove(trace.c_str());
  ASSERT_EQ(run(std::string(BLAZE_RUN_PATH) +
                " -query bfs -computeWorkers 2 --trace " + trace + " " +
                prefix_ + ".gr.index " + prefix_ + ".gr.adj.0"),
            0)
      << output();
  EXPECT_NE(output().find("trace: wrote"), std::string::npos) << output();
  const std::string json = read_file(trace);
  ASSERT_FALSE(json.empty()) << "trace file missing or empty";
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"edge_map\""), std::string::npos);
  std::remove(trace.c_str());
}

TEST_F(ToolsTest, ServingModeWithTraceReportsCounters) {
  const std::string trace = "/tmp/blaze_tools_serve_trace.json";
  std::remove(trace.c_str());
  ASSERT_EQ(run(std::string(BLAZE_RUN_PATH) +
                " -query pr -computeWorkers 2 -maxIterations 3 --clients 2 "
                "--queries 2 --slowQueryMs 0 --trace " +
                trace + " " + prefix_ + ".gr.index " + prefix_ +
                ".gr.adj.0"),
            0)
      << output();
  const std::string out = output();
  EXPECT_EQ(stat_row(out, "completed"), 4) << out;
  EXPECT_NE(out.find("trace: wrote"), std::string::npos) << out;
  // The trace file carries the serving spans.
  const std::string json = read_file(trace);
  EXPECT_NE(json.find("\"session_execute\""), std::string::npos);
  EXPECT_NE(json.find("\"admission_wait\""), std::string::npos);
  std::remove(trace.c_str());
}

/// First integer after `"key":` (optional space) at or after `from`.
long long json_int(const std::string& json, const std::string& key,
                   std::size_t from = 0) {
  auto pos = json.find("\"" + key + "\":", from);
  if (pos == std::string::npos) return -1;
  return std::strtoll(json.c_str() + pos + key.size() + 3, nullptr, 10);
}

/// Occurrences of `needle` in `s`.
std::size_t count_of(const std::string& s, const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = s.find(needle); pos != std::string::npos;
       pos = s.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

TEST_F(ToolsTest, TelemetryOutputsAgreeWithEachOther) {
  const std::string stats = "/tmp/blaze_tools_stats.json";
  const std::string profile = "/tmp/blaze_tools_profile.json";
  const std::string metrics = "/tmp/blaze_tools_metrics.json";
  ASSERT_EQ(run(std::string(BLAZE_RUN_PATH) +
                " -query wcc -computeWorkers 2 --cacheMB 1 --stats-json " +
                stats + " --profile " + profile + " --metrics-out " +
                metrics + " " + prefix_ + ".gr.index " + prefix_ +
                ".gr.adj.0 -inIndexFilename " + prefix_ +
                ".tgr.index -inAdjFilenames " + prefix_ + ".tgr.adj.0"),
            0)
      << output();

  // --stats-json: IO was read through the cache, one namespace row per
  // graph, and the DRAM breakdown sums to its total.
  const std::string s = read_file(stats);
  ASSERT_FALSE(s.empty()) << output();
  const long long pages = json_int(s, "pages_read");
  const long long bytes = json_int(s, "bytes_read");
  EXPECT_GT(pages, 0) << s;
  const auto ns = s.find("\"cache_namespaces\"");
  ASSERT_NE(ns, std::string::npos) << s;
  EXPECT_EQ(count_of(s.substr(ns, s.find(']', ns) - ns), "\"name\""), 2u)
      << s;
  const auto mem = s.find("\"memory\"");
  ASSERT_NE(mem, std::string::npos) << s;
  long long parts = 0;
  for (const char* k :
       {"io_buffers", "bins", "graph_metadata", "frontiers", "algorithm"}) {
    const long long v = json_int(s, k, mem);
    EXPECT_GE(v, 0) << k;
    parts += v;
  }
  EXPECT_EQ(json_int(s, "total", mem), parts) << s;
  EXPECT_EQ(s.find("prefetch"), std::string::npos) << s;

  // --profile: a miss-ratio curve per sampled namespace, and read
  // latencies from the physical device under the cache adapter.
  const std::string p = read_file(profile);
  ASSERT_FALSE(p.empty()) << output();
  const auto mrc = p.find("\"mrc\"");
  ASSERT_NE(mrc, std::string::npos) << p;
  EXPECT_GE(count_of(p.substr(mrc, p.find("\"stalls\"") - mrc),
                     "\"namespace\""),
            1u)
      << p;
  const auto devices = p.find("\"devices\"");
  ASSERT_NE(devices, std::string::npos) << p;
  long long max_reads = 0;
  for (auto pos = p.find("\"reads\":", devices); pos != std::string::npos;
       pos = p.find("\"reads\":", pos + 1)) {
    max_reads = std::max(max_reads, json_int(p, "reads", pos));
  }
  EXPECT_GT(max_reads, 0) << p;

  // --metrics-out: the registry's IO totals are the query's, exactly.
  const std::string m = read_file(metrics);
  ASSERT_FALSE(m.empty()) << output();
  const auto io_bytes = m.find("\"name\":\"blaze_io_bytes_total\"");
  const auto io_pages = m.find("\"name\":\"blaze_io_pages_total\"");
  ASSERT_NE(io_bytes, std::string::npos) << m;
  ASSERT_NE(io_pages, std::string::npos) << m;
  EXPECT_EQ(json_int(m, "value", io_bytes), bytes);
  EXPECT_EQ(json_int(m, "value", io_pages), pages);

  for (const std::string& f : {stats, profile, metrics}) {
    std::remove(f.c_str());
  }
}

TEST_F(ToolsTest, AsyncModeRunsAndReports) {
  ASSERT_EQ(run(std::string(BLAZE_RUN_PATH) +
                " -query pr -computeWorkers 2 --mode async --epsilon 1e-3 " +
                prefix_ + ".gr.index " + prefix_ + ".gr.adj.0"),
            0)
      << output();
  EXPECT_NE(output().find("mode: async"), std::string::npos) << output();

  ASSERT_EQ(run(std::string(BLAZE_RUN_PATH) +
                " -query sssp -computeWorkers 2 --mode async -startNode 0 " +
                prefix_ + ".gr.index " + prefix_ + ".gr.adj.0"),
            0)
      << output();
}

TEST_F(ToolsTest, LiveReporterAndScrapeEndpointAnnounceOnStderr) {
  // Port 0 binds an ephemeral port. The sampler's final tick on stop()
  // guarantees at least one [live] line however fast the query finishes.
  const std::string err_path = "/tmp/blaze_tool_err.txt";
  ASSERT_EQ(std::system((std::string(BLAZE_RUN_PATH) +
                         " -query pr -computeWorkers 2 -maxIterations 3 "
                         "--live --metricsSampleMs 5 --metrics-port 0 " +
                         prefix_ + ".gr.index " + prefix_ +
                         ".gr.adj.0 > /dev/null 2> " + err_path)
                            .c_str()),
            0);
  const std::string err = read_file(err_path);
  std::remove(err_path.c_str());
  EXPECT_NE(err.find("[live] read "), std::string::npos) << err;
  EXPECT_NE(err.find("metrics: http://localhost:"), std::string::npos)
      << err;
}

TEST_F(ToolsTest, ServingModeLiveReportShowsQueueGauges) {
  // In serving mode the engine's sampler feeds the live reporter, so its
  // lines carry the serve queue gauges; the final tick on shutdown
  // guarantees at least one line.
  const std::string err_path = "/tmp/blaze_tool_err.txt";
  ASSERT_EQ(std::system((std::string(BLAZE_RUN_PATH) +
                         " -query bfs --clients 2 --queries 2 --live "
                         "--metricsSampleMs 5 " +
                         prefix_ + ".gr.index " + prefix_ +
                         ".gr.adj.0 > /dev/null 2> " + err_path)
                            .c_str()),
            0);
  const std::string err = read_file(err_path);
  std::remove(err_path.c_str());
  bool queued_line = false;
  for (std::size_t pos = err.find("[live] "); pos != std::string::npos;
       pos = err.find("[live] ", pos + 1)) {
    const std::string line = err.substr(pos, err.find('\n', pos) - pos);
    queued_line = queued_line || line.find("| queued") != std::string::npos;
  }
  EXPECT_TRUE(queued_line) << err;
}

TEST_F(ToolsTest, UnknownModeRejected) {
  EXPECT_NE(run(std::string(BLAZE_RUN_PATH) + " -query pr --mode nope " +
                prefix_ + ".gr.index " + prefix_ + ".gr.adj.0"),
            0);
  EXPECT_NE(output().find("--mode"), std::string::npos) << output();
}

TEST_F(ToolsTest, UnknownFlagRejected) {
  // A retired flag and a typo must not run with the defaults: exit 2,
  // naming the flag.
  const struct {
    const char* args;
    const char* name;
  } cases[] = {{"--catalog-apportion mrc", "catalog-apportion"},
               {"-computeWorker 8", "computeWorker"}};
  for (const auto& c : cases) {
    const int status = run(std::string(BLAZE_RUN_PATH) + " -query bfs " +
                           c.args + " " + prefix_ + ".gr.index " + prefix_ +
                           ".gr.adj.0");
    ASSERT_TRUE(WIFEXITED(status)) << c.args;
    EXPECT_EQ(WEXITSTATUS(status), 2) << c.args << "\n" << output();
    EXPECT_NE(output().find(std::string("unknown flag: ") + c.name + "\n"),
              std::string::npos)
        << output();
    EXPECT_EQ(output().find("reached"), std::string::npos) << output();
  }
}

TEST_F(ToolsTest, WeightedGraphRejectsDvarintTranscode) {
  // Same rule blaze-gen enforces at write time: weighted 8-byte records
  // are flat-only, so asking blaze-run to transcode must fail cleanly
  // (typed error -> exit 2) instead of producing a corrupt in-memory copy.
  const std::string wprefix = "/tmp/blaze_tools_wgraph";
  ASSERT_EQ(run(std::string(BLAZE_GEN_PATH) +
                " -type rmat -scale 10 -edgeFactor 8 -seed 7 -weighted " +
                wprefix),
            0)
      << output();
  EXPECT_NE(run(std::string(BLAZE_RUN_PATH) +
                " -query sssp -computeWorkers 2 --format dvarint " + wprefix +
                ".gr.index " + wprefix + ".gr.adj.0"),
            0);
  const std::string out = output();
  EXPECT_NE(out.find("error"), std::string::npos) << out;
  EXPECT_NE(out.find("dvarint"), std::string::npos) << out;
  EXPECT_NE(out.find("weighted"), std::string::npos) << out;
  // The same weighted graph still runs flat, in both execution modes.
  EXPECT_EQ(run(std::string(BLAZE_RUN_PATH) +
                " -query sssp -computeWorkers 2 -startNode 0 " + wprefix +
                ".gr.index " + wprefix + ".gr.adj.0"),
            0)
      << output();
  EXPECT_EQ(run(std::string(BLAZE_RUN_PATH) +
                " -query sssp -computeWorkers 2 --mode async -startNode 0 " +
                wprefix + ".gr.index " + wprefix + ".gr.adj.0"),
            0)
      << output();
  for (const char* suffix :
       {".gr.index", ".gr.adj.0", ".tgr.index", ".tgr.adj.0"}) {
    std::remove((wprefix + suffix).c_str());
  }
}

TEST_F(ToolsTest, MissingGraphFileFailsCleanly) {
  EXPECT_NE(run(std::string(BLAZE_RUN_PATH) +
                " -query bfs /nonexistent.idx /nonexistent.adj"),
            0);
  EXPECT_NE(output().find("error"), std::string::npos);
}

TEST_F(ToolsTest, UnknownQueryRejected) {
  EXPECT_NE(run(std::string(BLAZE_RUN_PATH) + " -query nope " + prefix_ +
                ".gr.index " + prefix_ + ".gr.adj.0"),
            0);
}

}  // namespace
