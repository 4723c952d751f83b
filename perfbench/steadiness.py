#!/usr/bin/env python3
"""Two-set steadiness check for the whole-stack benchmark.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b]
                                    [--record perfbench/trajectory.json --label TEXT]

Runs every workload `--runs` times per set, each run with its own seed (set k
uses seeds k*runs+1 .. (k+1)*runs), through perfbench/run.py with --trace 0
and BENCHMARK.json's run_seconds. For each set and end-to-end metric it
reports the median and quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median. It flags:

  * SPREAD  a metric whose spread exceeds its bound;
  * SHIFT   a metric whose median in a later set is worse than in the first
            set by more than its bound.

It also notes spreads above a third of the bound, the benchmark's own
steadiness target. The exit code is 1 if anything was flagged or a run
failed. --record appends the sets' summaries, labelled, to a JSON trajectory
file.
"""
import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d: run.py exited %d" % (workload, seed, proc.returncode))
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "n": len(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--record", default="")
    ap.add_argument("--label", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    flags, notes, report = [], [], {}
    for w in workloads:
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = k * args.runs + i + 1
                try:
                    runs.append(run_once(w, seed, spec["run_seconds"]))
                except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
                    flags.append("FAILED %s" % e)
            sets.append({m["name"]: summarize([r[m["name"]] for r in runs])
                         for m in metrics} if len(runs) >= 2 else {})
        report[w] = sets
        for m in metrics:
            name, bound = m["name"], m["bound"]
            for k, s in enumerate(sets):
                if name not in s:
                    continue
                sp = s[name]["spread"]
                print("%-15s set %d %-20s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f"
                      " (bound %.2f)" % (w, k + 1, name, s[name]["median"], s[name]["q1"],
                                         s[name]["q3"], sp, bound), file=sys.stderr)
                if sp > bound:
                    flags.append("SPREAD %s %s set %d: %.4f > %.2f" % (w, name, k + 1, sp, bound))
                elif sp > bound / 3:
                    notes.append("%s %s set %d: spread %.4f above bound/3" % (w, name, k + 1, sp))
                if k > 0 and name in sets[0]:
                    first, later = sets[0][name]["median"], s[name]["median"]
                    worse = (later - first) if m["better"] == "lower" else (first - later)
                    if first and worse / abs(first) > bound:
                        flags.append("SHIFT %s %s set %d: median %.6g vs %.6g (bound %.2f)"
                                     % (w, name, k + 1, later, first, bound))

    for n in notes:
        print("note: " + n, file=sys.stderr)
    for fl in flags:
        print(fl, file=sys.stderr)
    print(json.dumps(report))

    if args.record:
        point = {
            "label": args.label,
            "date": datetime.date.today().isoformat(),
            "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                     "system": platform.system()},
            "run_seconds": spec["run_seconds"],
            "runs_per_set": args.runs,
            "workloads": report,
        }
        trajectory = []
        if os.path.isfile(args.record):
            with open(args.record, encoding="utf-8") as f:
                trajectory = json.load(f)
        trajectory.append(point)
        with open(args.record, "w", encoding="utf-8") as f:
            json.dump(trajectory, f, indent=1)
            f.write("\n")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
