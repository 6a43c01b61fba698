#!/usr/bin/env python3
"""Blaze benchmark: builds blaze_bench, runs workloads, prints metrics.

One run of one workload (the form BENCHMARK.json's command is called in):

    python3 benchmark/run.py --workload ssd-flat --seed 1 --trace 0

prints one JSON line per metric ({workload, metric, value, unit, kind,
source}) and, as its last line, {"correct", "attempted", "failed",
"metrics"} holding the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1) that BENCHMARK.json declares. BENCHMARK.json declares
only metrics that every workload has and that never read 0; the other
lines (each query kind's median, failed_frac, and the cache, sched and
serve layers where a workload runs them) are printed but not declared.

Without --trace, every selected workload (all, or --workload NAME) runs
once untraced and once traced, and bench.trace_overhead is reported.
--repeat N does that for N consecutive seeds and reports the median and
inter-quartile range of every metric. --smoke runs every workload at tiny
scale with the oracle and output-schema checks. The exit code is non-zero
when a build or run fails or any query result differs from its oracle.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
BUILD = ROOT / "build-bench"
BINARY = BUILD / "blaze_bench"
WORKLOADS = ["ssd-flat", "mem-flat", "mem-dvarint", "ssd-async",
             "serve-cached"]
KINDS = ["bfs", "pagerank", "wcc", "sssp", "kcore"]
RUN_TIMEOUT_S = 170
SMOKE_SHIFT = 6
SMOKE_SECONDS = 0.3
MIB = 1 << 20
MAX_BOUND = 0.25
# Fields of one query in blaze_bench's "queries" list.
KIND, LATENCY, QUEUE, EXEC, LAG, EDGE_MAP, ITERATIONS, BYTES, EDGES = range(9)


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    jobs = str(os.cpu_count() or 1)
    for cmd in (["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD)],
                ["cmake", "--build", str(BUILD), "--target", "blaze_bench",
                 "-j", jobs]):
        p = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if p.returncode:
            raise SystemExit("benchmark build failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, trace, shift=0):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--shift", str(shift)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode or not lines:
        raise SystemExit(f"{workload}: blaze_bench exited {p.returncode}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------- metrics --

def quantile(values, q):
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty list."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def by_kind(raw):
    out = {}
    for q in raw["queries"]:
        out.setdefault(q[KIND], []).append(q)
    return out


def failures(raw):
    return raw["failed"] + raw["refused"] + raw["mismatched"]


def e2e_metrics(raw):
    """End-to-end metrics: what a user of the engine waits for."""
    lat = [q[LATENCY] * 1e3 for q in raw["queries"]]
    per_kind = {k: statistics.median(q[LATENCY] * 1e3 for q in qs)
                for k, qs in by_kind(raw).items()}
    m = {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "query_ms": (statistics.geometric_mean(per_kind.values()), "ms"),
        "latency_p50_ms": (quantile(lat, 0.50), "ms"),
        "latency_p95_ms": (quantile(lat, 0.95), "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
    }
    # Each kind's median, judged by compare.py under query_ms's bound, and
    # the failure share, which reads 0 on a healthy run.
    detail = {f"{k}_ms": (per_kind[k], "ms") for k in KINDS if k in per_kind}
    detail["failed_frac"] = (failures(raw) / raw["attempted"], "ratio")
    return m, detail


def layer_metrics(raw):
    """Per-layer metrics of a traced run, read at each layer's boundary."""
    qs = raw["queries"]
    io, dev = raw["io"], raw["device"]
    exec_s = sum(q[EXEC] for q in qs)
    edge_map_s = sum(q[EDGE_MAP] for q in qs)
    m = {
        "device.reads": (dev["reads"], "count"),
        "device.bytes": (dev["bytes"] / MIB, "MiB"),
        "device.req_kb": (dev["bytes"] / 1024 / max(dev["reads"], 1), "KiB"),
        "device.wait_s": (dev["wait_s"], "s"),
        "io.requests": (io["requests"], "count"),
        "io.pages": (io["pages"], "count"),
        "io.pages_per_request": (io["pages"] / max(io["requests"], 1),
                                 "ratio"),
        "io.bytes": (io["bytes"] / MIB, "MiB"),
        "io.useful_byte_frac": (
            io["edges"] * raw["bytes_per_edge"] / max(io["bytes"], 1),
            "ratio"),
        "io.consumer_wait_s": (io["consumer_wait_s"], "s"),
        "io.inflight_peak": (io["inflight_peak"], "count"),
        "graph.generate_s": (raw["generate_s"], "s"),
        "format.layout_s": (statistics.median(raw["layout_s"]), "s"),
        "format.bytes_per_edge": (raw["bytes_per_edge"], "B/edge"),
        "core.edge_map_s": (edge_map_s, "s"),
        "core.edge_map_frac": (edge_map_s / exec_s, "ratio"),
        "core.edge_map_calls": (io["edge_map_calls"], "count"),
        "core.edges": (io["edges"], "count"),
        "core.records_binned": (io["records_binned"], "count"),
        "core.ns_per_edge": (edge_map_s * 1e9 / max(io["edges"], 1), "ns"),
        "algorithms.outside_edge_map_s": (exec_s - edge_map_s, "s"),
        "algorithms.iterations": (statistics.fmean(q[ITERATIONS] for q in qs),
                                  "count"),
        "bench.oracle_s": (raw["oracle_s"], "s"),
    }
    # Counters that read 0 unless their mechanism fires: buffer stalls,
    # async prefetch, retries after transient device faults.
    detail = {
        "io.buffer_stall_s": (io["buffer_stall_s"], "s"),
        "io.prefetch_bytes": (io["prefetch_bytes"] / MIB, "MiB"),
        "io.retries": (io["retries"], "count"),
    }
    kinds = by_kind(raw)
    for k, kqs in kinds.items():
        k_exec = sum(q[EXEC] for q in kqs)
        k_edge_map = sum(q[EDGE_MAP] for q in kqs)
        k_edges = sum(q[EDGES] for q in kqs)
        detail[f"core.ns_per_edge.{k}"] = (
            k_edge_map * 1e9 / max(k_edges, 1), "ns")
        detail[f"algorithms.outside_edge_map_s.{k}"] = (k_exec - k_edge_map,
                                                       "s")
        detail[f"algorithms.iterations.{k}"] = (
            statistics.fmean(q[ITERATIONS] for q in kqs), "count")
    layers = raw["layers"]
    if "ssd" in layers:
        detail["device.busy_s"] = (dev["busy_s"], "s")
        detail["device.util"] = (dev["busy_s"] / raw["query_wall_s"], "ratio")
    if "cache" in layers:
        hits, misses = dev["cache_hits"], dev["cache_misses"]
        detail.update({
            "cache.hit_rate": (hits / max(hits + misses, 1), "ratio"),
            "cache.hits": (hits, "count"),
            "cache.misses": (misses, "count"),
            "cache.dedup_hits": (dev["cache_dedup_hits"], "count"),
            "cache.ghost_hits": (dev["cache_ghost_hits"], "count"),
            "cache.evictions": (dev["cache_evictions"], "count"),
            "cache.self_s": (dev["outer_s"] - dev["wait_s"], "s"),
        })
    # The sched layer against its own baseline: the median async query of
    # a kind over the median BSP run of that kind from the same sources.
    for k, ref in raw["sched"].items():
        detail[f"sched.bytes_vs_bsp.{k}"] = (
            statistics.median(q[BYTES] for q in kinds[k]) /
            statistics.median(ref["bytes"]), "ratio")
        detail[f"sched.time_vs_bsp.{k}"] = (
            statistics.median(q[EXEC] for q in kinds[k]) /
            statistics.median(ref["seconds"]), "ratio")
    # Open loop only: in the closed loop a query is sent and started the
    # moment it is due, so queue wait and lag read 0 by construction there.
    if "serve" in layers:
        waits = [q[QUEUE] * 1e3 for q in qs]
        execs = [q[EXEC] * 1e3 for q in qs]
        detail.update({
            "serve.queue_wait_ms.p50": (quantile(waits, 0.50), "ms"),
            "serve.queue_wait_ms.p95": (quantile(waits, 0.95), "ms"),
            "serve.exec_ms.p50": (quantile(execs, 0.50), "ms"),
            "serve.exec_ms.p95": (quantile(execs, 0.95), "ms"),
            "serve.refused": (raw["refused"], "count"),
            "serve.gen_lag_ms.max": (max(q[LAG] for q in qs) * 1e3, "ms"),
        })
    return m, detail


MODELED = {"device.busy_s", "device.util"}


def metric_line(workload, name, value, unit, kind):
    source = "modeled" if name in MODELED else "measured"
    return {"workload": workload, "metric": name, "value": value,
            "unit": unit, "kind": kind, "source": source}


def evaluate(raw):
    """Returns (metric lines, contract metrics) for one binary run."""
    if not raw["queries"]:
        raise SystemExit(f"{raw['workload']}: no query completed")
    if raw["trace"]:
        declared, detail = layer_metrics(raw)
        kind = "layer"
    else:
        declared, detail = e2e_metrics(raw)
        kind = "e2e"
    lines = [metric_line(raw["workload"], n, v, u, kind)
             for n, (v, u) in {**declared, **detail}.items()]
    contract = {n: {"value": v, "unit": u} for n, (v, u) in declared.items()}
    return lines, contract


def emit(obj):
    print(json.dumps(obj), flush=True)


# ------------------------------------------------------------------ modes --

def single(args):
    raw = run_binary(args.workload[0], args.seed, args.seconds, args.trace)
    lines, contract = evaluate(raw)
    for line in lines:
        emit(line)
    emit({"correct": raw["mismatched"] == 0, "attempted": raw["attempted"],
          "failed": failures(raw), "metrics": contract})
    return 0 if raw["mismatched"] == 0 else 1


def run_pair(workload, seed, seconds):
    """Untraced then traced run: metric lines plus the trace overhead."""
    plain = run_binary(workload, seed, seconds, False)
    traced = run_binary(workload, seed, seconds, True)
    lines = evaluate(plain)[0] + evaluate(traced)[0]
    overhead = (e2e_metrics(traced)[0]["query_ms"][0] /
                e2e_metrics(plain)[0]["query_ms"][0])
    lines.append(metric_line(workload, "bench.trace_overhead", overhead,
                             "ratio", "layer"))
    return lines, [plain, traced]


def summarize(raws):
    mismatched = sum(r["mismatched"] for r in raws)
    return {"correct": mismatched == 0,
            "attempted": sum(r["attempted"] for r in raws),
            "failed": sum(failures(r) for r in raws)}


def full(args):
    raws, metrics = [], {}
    for w in args.workload:
        lines, rs = run_pair(w, args.seed, args.seconds)
        raws += rs
        for line in lines:
            emit(line)
            metrics[f"{w}/{line['metric']}"] = {"value": line["value"],
                                               "unit": line["unit"]}
    summary = summarize(raws)
    emit({**summary, "metrics": metrics})
    return 0 if summary["correct"] else 1


def kind_metric(name):
    """True for a query kind's median, which shares query_ms's bound."""
    return name in {f"{k}_ms" for k in KINDS}


def repeat(args):
    raws, samples = [], {}
    for i in range(args.repeat):
        seed = args.seed + i
        for w in args.workload:
            lines, rs = run_pair(w, seed, args.seconds)
            raws += rs
            for line in lines:
                key = (w, line["metric"])
                samples.setdefault(key, (line, []))[1].append(line["value"])
            log(f"repeat {i + 1}/{args.repeat} {w} done")
    metrics, spreads = {}, {}
    for (w, name), (line, values) in samples.items():
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else values * 3)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else 0.0
        emit({**line, "value": med, "q1": q1, "q3": q3, "n": len(values),
              "iqr_rel": spread})
        metrics[f"{w}/{name}"] = {"value": med, "unit": line["unit"]}
        spreads.setdefault("query_ms" if kind_metric(name) else name,
                           []).append(spread)
    # The bound each end-to-end metric needs so that its widest spread over
    # the workloads (and, for query_ms, every kind's median) stays below a
    # third of it; at least 3%, and at most the largest bound BENCHMARK.json
    # may hold.
    for m in json.loads(SPEC.read_text())["end_to_end"]:
        widest = max(spreads[m["name"]])
        emit({"metric": m["name"], "spread_max": widest,
              "bound_derived": min(MAX_BOUND, max(0.03, 3 * widest)),
              "bound_declared": m["bound"]})
    summary = summarize(raws)
    emit({**summary, "metrics": metrics})
    return 0 if summary["correct"] else 1


def smoke(args):
    """Every workload, tiny and short, checking oracles and the schema."""
    spec = json.loads(SPEC.read_text())
    declared = {"e2e": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    start = time.monotonic()
    for w in WORKLOADS:
        for trace in (False, True):
            raw = run_binary(w, args.seed, SMOKE_SECONDS, trace, SMOKE_SHIFT)
            lines, contract = evaluate(raw)
            want = declared["layer" if trace else "e2e"]
            got = {n: m["unit"] for n, m in contract.items()}
            problems = []
            if got != want:
                problems.append(f"metrics {sorted(set(got) ^ set(want))} or "
                                f"their units differ from BENCHMARK.json")
            for n, m in contract.items():
                if m["value"] == 0:
                    problems.append(f"declared metric {n} reads 0")
            for line in lines:
                if (set(line) != {"workload", "metric", "value", "unit",
                                  "kind", "source"}
                        or not isinstance(line["value"], (int, float))
                        or not math.isfinite(line["value"])):
                    problems.append(f"bad line {line}")
            if raw["mismatched"] or failures(raw) or raw["attempted"] < 1:
                problems.append(f"{failures(raw)} of {raw['attempted']} "
                                f"queries failed")
            for p in problems:
                log(f"smoke {w} trace={int(trace)}: {p}")
            ok = ok and not problems
            emit({"workload": w, "trace": int(trace), "ok": not problems,
                  "attempted": raw["attempted"]})
    emit({"smoke": "ok" if ok else "failed",
          "seconds": time.monotonic() - start})
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured time per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="one run of one workload, untraced or traced")
    ap.add_argument("--repeat", type=int, default=0, metavar="N",
                    help="N seeds per workload: median and IQR per metric")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at tiny scale, checks only")
    args = ap.parse_args()
    args.workload = args.workload or WORKLOADS
    if args.seconds is None:
        args.seconds = json.loads(SPEC.read_text())["run_seconds"]

    build()
    if args.smoke:
        return smoke(args)
    if args.trace is not None:
        if len(args.workload) != 1:
            ap.error("--trace needs exactly one --workload")
        return single(args)
    if args.repeat:
        return repeat(args)
    return full(args)


if __name__ == "__main__":
    sys.exit(main())
