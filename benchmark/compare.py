#!/usr/bin/env python3
"""Compares two checkouts of Blaze on the benchmark's end-to-end metrics.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR [--workload NAME ...]
    python3 benchmark/compare.py --load RESULTS.jsonl

Runs `benchmark/run.py --trace 0` in both checkouts for 10 seeds per
workload, alternating which side runs first, each run as long as this
checkout's BENCHMARK.json says, and prints every run as one JSON line (save
them to re-judge later with --load). Then it prints one row per workload x
end-to-end metric the runs printed: the metrics BENCHMARK.json declares,
under their own bounds, and each query kind's median (bfs_ms, ...), under
query_ms's bound. A declared bound covers the noisiest workload; where
three times the parent's own spread (IQR / median), but at least 3%, is
tighter, that bound applies instead. Each row is judged by the rule of the
choosing-metrics guide:

  improved    the change wins at least 9 in 10 pairs (ties count for
              neither), and the medians differ by more than the parent's
              inter-quartile range
  regressed   the change's median is worse than the parent's by more than
              the bound
  unresolved  neither, and the parent's own spread (IQR / median) is wider
              than the bound, unless every change run beats every parent run
  unchanged   otherwise

A workload whose share of failed queries rose is flagged FAILED-ROSE.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
FIRST_SEED = 1000
WIN_SHARE = 0.9
MIN_BOUND = 0.03
KIND_METRICS = ["bfs_ms", "pagerank_ms", "wcc_ms", "sssp_ms", "kcore_ms"]
KIND_BOUND = "query_ms"  # each kind's median is held to query_ms's bound


def run_side(checkout, workload, seed, seconds):
    """One untraced run: its result line and every e2e metric it printed."""
    cmd = [sys.executable, str(Path(checkout) / "benchmark" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = [json.loads(line) for line in p.stdout.splitlines()
             if line.startswith("{")]
    if not lines:
        raise SystemExit(f"{checkout}: run.py printed nothing for {workload}")
    e2e = {r["metric"]: r["value"] for r in lines[:-1]
           if r.get("kind") == "e2e"}
    return lines[-1], e2e


def collect(parent, change, workloads, seconds):
    records = []
    for w in workloads:
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            sides = [("parent", parent), ("change", change)]
            for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                result, e2e = run_side(checkout, w, seed, seconds)
                rec = {"side": side, "workload": w, "seed": seed,
                       "result": result, "e2e": e2e}
                print(json.dumps(rec), flush=True)
                records.append(rec)
    return records


def verdict(parent, change, bound, better):
    """parent/change: values of one metric, paired by seed order. Returns
    (verdict, wins, pairs, the bound applied)."""
    sign = 1 if better == "lower" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    iqr = q3 - q1
    # The declared bound covers the noisiest workload. Where the parent's
    # own runs are steadier, the rule that set it (three times the spread,
    # at least MIN_BOUND) gives a tighter one, and that one applies.
    bound = min(bound, max(MIN_BOUND, 3 * iqr / mp))
    gain = sign * (mp - mc)  # > 0: the change is better
    if (len(pairs) >= PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain > iqr):
        return "improved", wins, len(pairs), bound
    if -gain > bound * mp:
        return "regressed", wins, len(pairs), bound
    every_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if iqr > bound * mp and not every_better:
        return "unresolved", wins, len(pairs), bound
    return "unchanged", wins, len(pairs), bound


def judged_metrics(spec):
    """(name, unit, bound, better) of every metric compare.py judges."""
    declared = {m["name"]: m for m in spec["end_to_end"]}
    kind_bound = declared[KIND_BOUND]["bound"]
    return ([(m["name"], m["unit"], m["bound"], m["better"])
             for m in spec["end_to_end"]] +
            [(k, "ms", kind_bound, "lower") for k in KIND_METRICS])


def judge(records):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {}
    for r in records:
        runs.setdefault((r["workload"], r["side"]), []).append(r)
    ok = True
    for w in dict.fromkeys(r["workload"] for r in records):
        sides = {s: sorted(runs.get((w, s), []), key=lambda r: r["seed"])
                 for s in ("parent", "change")}
        if len(sides["parent"]) != len(sides["change"]) or not sides["parent"]:
            raise SystemExit(f"{w}: parent and change runs do not pair up")
        share = {s: sum(r["result"]["failed"] for r in rs) /
                 sum(r["result"]["attempted"] for r in rs)
                 for s, rs in sides.items()}
        if share["change"] > share["parent"]:
            print(f"{w:13s} FAILED-ROSE {share['parent']:.4f} -> "
                  f"{share['change']:.4f}")
            ok = False
        for name, unit, bound, better in judged_metrics(spec):
            vals = {s: [r["e2e"].get(name) for r in rs]
                    for s, rs in sides.items()}
            present = [v is not None for rs in vals.values() for v in rs]
            if not any(present):
                continue  # a kind this workload does not run
            if not all(present):
                print(f"{w:13s} {name:15s} missing on some runs  regressed")
                ok = False
                continue
            v, wins, n, applied = verdict(vals["parent"], vals["change"],
                                          bound, better)
            ok = ok and v != "regressed"
            print(f"{w:13s} {name:15s} parent "
                  f"{statistics.median(vals['parent']):12.4f} change "
                  f"{statistics.median(vals['change']):12.4f} {unit:4s} "
                  f"wins {wins:2d}/{n:2d} bound {applied:.2f}  {v}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--load", help="judge runs saved from an earlier call")
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    if args.load:
        with open(args.load) as f:
            return judge([json.loads(line) for line in f
                          if line.startswith("{")])
    if not (args.parent and args.change):
        ap.error("give PARENT_DIR and CHANGE_DIR, or --load FILE")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    return judge(collect(args.parent, args.change, workloads,
                         spec["run_seconds"]))


if __name__ == "__main__":
    sys.exit(main())
