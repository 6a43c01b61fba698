#include "trace/chrome_export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <utility>

#include "trace/tracer.h"

namespace blaze::trace {

namespace {

/// One serialized row, pre-sanitization.
struct Rec {
  char ph = 'i';
  Name name = Name::kNumNames;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  QueryId pid = 0;
  std::uint32_t tid = 0;
  std::uint64_t arg = 0;
  bool has_arg = false;
};

void append_rec(std::string& out, const Rec& r, std::uint64_t t0_ns) {
  char buf[256];
  const double ts_us = static_cast<double>(r.ts_ns - t0_ns) / 1000.0;
  int n = std::snprintf(
      buf, sizeof(buf),
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,"
      "\"pid\":%" PRIu64 ",\"tid\":%u",
      to_string(r.name), category_of(r.name), r.ph, ts_us,
      static_cast<std::uint64_t>(r.pid), r.tid);
  out.append(buf, static_cast<std::size_t>(n));
  if (r.ph == 'X') {
    n = std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                      static_cast<double>(r.dur_ns) / 1000.0);
    out.append(buf, static_cast<std::size_t>(n));
  }
  if (r.ph == 'i') out.append(",\"s\":\"t\"");
  if (r.has_arg) {
    if (r.name == Name::kCacheHit || r.name == Name::kCacheMiss) {
      // Shard-attributed cache instants (see trace::cache_arg).
      const std::uint64_t pages = cache_arg_pages(r.arg);
      const std::uint32_t shard1 = cache_arg_shard_plus_1(r.arg);
      if (shard1 != 0) {
        n = std::snprintf(buf, sizeof(buf),
                          ",\"args\":{\"pages\":%" PRIu64 ",\"shard\":%u}",
                          pages, shard1 - 1);
      } else {
        n = std::snprintf(buf, sizeof(buf),
                          ",\"args\":{\"pages\":%" PRIu64 "}", pages);
      }
    } else if (r.name == Name::kSchedRound) {
      n = std::snprintf(buf, sizeof(buf), ",\"args\":{\"round\":%" PRIu64 "}",
                        r.arg);
    } else {
      n = std::snprintf(buf, sizeof(buf), ",\"args\":{\"arg\":%" PRIu64 "}",
                        r.arg);
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  out.push_back('}');
}

}  // namespace

std::string to_chrome_json(const std::vector<Event>& events,
                           std::uint64_t dropped) {
  // Global time order; a stable sort preserves each thread's emission
  // order for equal timestamps (per-thread streams arrive in order).
  std::vector<Event> sorted = events;
  std::stable_sort(
      sorted.begin(), sorted.end(),
      [](const Event& a, const Event& b) { return a.ts_ns < b.ts_ns; });
  const std::uint64_t t0 =
      sorted.empty() ? 0 : sorted.front().ts_ns;

  // Sanitize into records: per (pid, tid), ends must match a begin (orphan
  // ends — a ring dropped the begin — are skipped) and begins left open at
  // the end of the stream are closed at the trace horizon.
  std::vector<Rec> recs;
  recs.reserve(sorted.size());
  std::map<std::pair<QueryId, std::uint32_t>, std::vector<Name>> open;
  std::uint64_t horizon = t0;
  for (const Event& e : sorted) {
    horizon = std::max(horizon, e.ts_ns + e.dur_ns);
    Rec r;
    r.name = e.name;
    r.ts_ns = e.ts_ns;
    r.pid = e.query;
    r.tid = e.tid;
    r.arg = e.arg;
    switch (e.phase) {
      case Phase::kBegin:
        r.ph = 'B';
        r.has_arg = e.arg != 0;
        open[{e.query, e.tid}].push_back(e.name);
        break;
      case Phase::kEnd: {
        auto& stack = open[{e.query, e.tid}];
        if (stack.empty()) continue;  // orphan end: begin was dropped
        // Close intermediates whose end events were lost so B/E stay
        // strictly nested per (pid, tid).
        while (stack.back() != e.name) {
          Rec close;
          close.ph = 'E';
          close.name = stack.back();
          close.ts_ns = e.ts_ns;
          close.pid = e.query;
          close.tid = e.tid;
          recs.push_back(close);
          stack.pop_back();
          if (stack.empty()) break;
        }
        if (stack.empty()) continue;
        stack.pop_back();
        r.ph = 'E';
        break;
      }
      case Phase::kComplete:
        r.ph = 'X';
        r.dur_ns = e.dur_ns;
        r.has_arg = e.arg != 0;
        break;
      case Phase::kInstant:
        r.ph = 'i';
        r.has_arg = e.arg != 0;
        break;
    }
    recs.push_back(r);
  }
  for (auto& [key, stack] : open) {
    while (!stack.empty()) {
      Rec r;
      r.ph = 'E';
      r.name = stack.back();
      r.ts_ns = horizon;
      r.pid = key.first;
      r.tid = key.second;
      recs.push_back(r);
      stack.pop_back();
    }
  }

  std::string out;
  out.reserve(recs.size() * 96 + 1024);
  out.append("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"tracer\":"
             "\"blaze::trace\",\"dropped_events\":\"");
  out.append(std::to_string(dropped));
  out.append("\"},\"traceEvents\":[");
  bool first = true;
  // Process-name metadata: one row per query id seen.
  std::vector<QueryId> pids;
  for (const Rec& r : recs) {
    if (std::find(pids.begin(), pids.end(), r.pid) == pids.end()) {
      pids.push_back(r.pid);
    }
  }
  std::sort(pids.begin(), pids.end());
  for (QueryId pid : pids) {
    char namebuf[48];
    if (pid == 0) {
      std::snprintf(namebuf, sizeof(namebuf), "engine");
    } else {
      std::snprintf(namebuf, sizeof(namebuf), "query %" PRIu64,
                    static_cast<std::uint64_t>(pid));
    }
    char buf[160];
    int n = std::snprintf(
        buf, sizeof(buf),
        "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%" PRIu64
        ",\"tid\":0,\"args\":{\"name\":\"%s\"}}",
        first ? "" : ",", static_cast<std::uint64_t>(pid), namebuf);
    out.append(buf, static_cast<std::size_t>(n));
    first = false;
  }
  for (const Rec& r : recs) {
    if (!first) out.push_back(',');
    first = false;
    append_rec(out, r, t0);
  }
  out.append("]}");
  return out;
}

bool write_chrome_trace(const std::string& path) {
  const std::string json = to_chrome_json(collect(), dropped_events());
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  return static_cast<bool>(f);
}

}  // namespace blaze::trace
