#!/usr/bin/env python3
"""A/B comparison of two checkouts on the whole-stack benchmark.

Usage:

    python3 scripts/perf_ab.py --parent DIR --change DIR [--pairs 10]
        [--seconds 25] [--seed 1] [--workloads a,b] [--json-out PATH]
    python3 scripts/perf_ab.py --selftest

For each workload it runs N pairs of `perfbench/run.py --trace 0`, one run in
each checkout, alternating which side goes first. Each side builds perfbench
into its own `.bench_build`; nothing under perfbench/ is changed. Metric
names, the better direction and the bounds come from the change checkout's
BENCHMARK.json.

Per workload and end-to-end metric it prints both sides' median and
quartiles, how many pairs the change won (ties count for neither side), and
a verdict by the rules for measuring in a small sandbox:

  gain          the change won at least 9/10 of the pairs, and its median is
                better than the parent's by more than the parent's
                interquartile spread;
  within bound  the change's median is no worse than the parent's by more
                than the metric's bound;
  worse         the change's median is worse than that;
  unresolved    the parent's relative spread is wider than the bound, so the
                runs cannot tell (unless every change run beats every parent
                run).

It also reports pairs whose "correct", "attempted" or "failed" differ. With
--json-out every run is written out as it finishes.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def quartiles(values):
    """(q1, median, q3) with linear interpolation between order statistics."""
    v = sorted(values)
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent, change, better, bound):
    """Summarises paired runs of one metric; returns a dict with the verdict."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    iqr = p_q3 - p_q1
    gain_by = sign * (c_med - p_med)  # > 0: the change's median is better
    scale = abs(p_med) if p_med != 0 else 1.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    n = len(parent)
    if wins >= math.ceil(0.9 * n) and gain_by > iqr:
        v = "gain"
    elif iqr / scale > bound and not all_better:
        v = "unresolved"
    elif -gain_by / scale > bound:
        v = "worse"
    else:
        v = "within bound"
    return {"parent": [p_q1, p_med, p_q3], "change": [c_q1, c_med, c_q3],
            "wins": wins, "pairs": n, "delta": (c_med - p_med) / scale, "verdict": v}


def run_side(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s: perfbench printed no result (exit %d)"
                           % (checkout, proc.returncode))
    return json.loads(lines[-1])


def report(workload, runs, metrics, out):
    out.write("\n== %s: %d pairs ==\n" % (workload, len(runs)))
    out.write("%-20s %-34s %-34s %6s %8s  %s\n" % (
        "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "delta",
        "verdict"))
    rows = {}
    for m in metrics:
        p = [r["parent"]["metrics"][m["name"]]["value"] for r in runs]
        c = [r["change"]["metrics"][m["name"]]["value"] for r in runs]
        s = verdict(p, c, m["better"], m["bound"])
        rows[m["name"]] = s
        fmt = lambda q: "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])  # noqa: E731
        out.write("%-20s %-34s %-34s %3d/%-2d %+7.1f%%  %s\n" % (
            m["name"], fmt(s["parent"]), fmt(s["change"]), s["wins"], s["pairs"],
            100.0 * s["delta"], s["verdict"]))
    for i, r in enumerate(runs):
        for key in ("correct", "attempted", "failed"):
            if r["parent"][key] != r["change"][key]:
                out.write("pair %d: %s differs: parent %s, change %s\n"
                          % (i + 1, key, r["parent"][key], r["change"][key]))
    return rows


def selftest():
    """Checks the verdict rules on canned numbers."""
    failures = []

    def expect(name, got, want):
        if got != want:
            failures.append("%s: got %r, want %r" % (name, got, want))

    p = [4.27, 4.56, 4.30, 4.41, 4.35, 4.38, 4.29, 4.50, 4.33, 4.44]
    c = [5.21, 5.47, 5.16, 5.14, 5.30, 5.25, 5.19, 5.40, 5.22, 5.35]
    expect("clear gain", verdict(p, c, "higher", 0.25)["verdict"], "gain")
    expect("gain wins", verdict(p, c, "higher", 0.25)["wins"], 10)
    expect("reversed is worse", verdict(c, p, "higher", 0.1)["verdict"], "worse")
    # Lower is better: the change's smaller values win.
    rss_p = [51.8, 51.7, 52.0, 51.9]
    rss_c = [46.7, 46.9, 46.8, 47.0]
    expect("lower gain", verdict(rss_p, rss_c, "lower", 0.15)["verdict"], "gain")
    expect("lower worse", verdict(rss_c, [v * 1.3 for v in rss_c], "lower", 0.15)["verdict"],
           "worse")
    # A small slip inside the bound, without 9/10 wins.
    q = [6.76, 6.85, 6.80, 6.90, 6.70, 6.82]
    r = [6.79, 6.70, 6.75, 6.88, 6.72, 6.78]
    expect("within bound", verdict(q, r, "higher", 0.25)["verdict"], "within bound")
    # Ties count for neither side: identical runs win nothing.
    same = verdict([1.0] * 10, [1.0] * 10, "higher", 0.05)
    expect("ties", (same["wins"], same["verdict"]), (0, "within bound"))
    # 8 of 10 wins is not a gain, however large the median gap.
    w = verdict([1.0] * 10, [2.0] * 8 + [0.5] * 2, "higher", 0.25)
    expect("8/10", (w["wins"], w["verdict"]), (8, "within bound"))
    # A gap smaller than the parent's spread is not a gain.
    spread_p = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8]
    expect("gap under iqr", verdict(spread_p, [v + 0.1 for v in spread_p], "higher", 1.0)
           ["verdict"], "within bound")
    # Spread wider than the bound: unresolved, unless the change dominates.
    noisy = [1.0, 2.0, 1.0, 2.0]
    expect("unresolved", verdict(noisy, [1.5, 1.4, 1.6, 1.5], "higher", 0.1)["verdict"],
           "unresolved")
    expect("dominates", verdict(noisy, [2.1, 2.2, 2.3, 2.4], "higher", 0.1)["verdict"],
           "within bound")
    expect("quartiles", quartiles([1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0))
    expect("one run", quartiles([7.0]), (7.0, 7.0, 7.0))
    for f in failures:
        print("FAIL " + f)
    print("perf_ab selftest: %s" % ("ok" if not failures else "%d failure(s)" % len(failures)))
    return 0 if not failures else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--json-out", help="write every run and verdict here")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.parent or not args.change:
        ap.error("--parent and --change are required")

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    record = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    for w in workloads:
        runs = []
        record["workloads"][w] = {"runs": runs}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_side(sides[side], w, args.seed, seconds)
            runs.append(pair)
            sys.stderr.write("%s pair %d/%d: sim_s_per_ref_s parent %.3f change %.3f\n" % (
                w, i + 1, args.pairs, pair["parent"]["metrics"]["sim_s_per_ref_s"]["value"],
                pair["change"]["metrics"]["sim_s_per_ref_s"]["value"]))
            if args.json_out:
                with open(args.json_out, "w", encoding="utf-8") as f:
                    json.dump(record, f, indent=1)
        record["workloads"][w]["verdicts"] = report(w, runs, metrics, sys.stdout)
        sys.stdout.flush()
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
