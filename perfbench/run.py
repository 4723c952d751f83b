#!/usr/bin/env python3
"""Whole-stack benchmark of the structured overlay simulator.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the simulator libraries from src/ plus two drivers) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload once, checks its outputs and prints one JSON result as the last line
of stdout:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports every end-to-end metric of BENCHMARK.json from the untraced
driver. --trace 1 reports every per-layer metric: it runs the untraced driver
and then the traced one (counter registry, allocation probe, spans written to
$CARGO_TARGET_DIR/perfbench/traces/) over the same window length, and
trace.overhead compares their sim_s_per_ref_s.

"attempted" counts the client messages offered in the run's deterministic
window and "failed" the sends the overlay refused at the source; messages lost
or shed inside the overlay show in delivery_ratio instead.

The correctness gate exits non-zero (after printing the result with
"correct": false) when any of these fails:
  * accounting: net.sent >= net.delivered + dropped, client delivered +
    refused <= attempted, deadline hits <= timely samples <= timely attempts;
  * the deterministic outputs are in range (ratios in (0, 1], latencies
    above 0, wire overhead >= 1, at least 1000 timely samples);
  * it_churn really churned;
  * flows_parallel's deterministic outputs (five simulated metrics plus a
    delivery digest) equal flows_steady's for the same seed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("flows_steady", "flows_parallel", "it_churn")
GATED = ("delivery_ratio", "timely_mean_ms", "timely_p99_ms", "deadline_met_ratio",
         "wire_overhead_ratio")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    """Configures (once) and builds the two drivers; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no src/ next to perfbench/: not a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "3"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(out, "son_perf"), os.path.join(out, "son_perf_traced")


def drive(binary, workload, seed, seconds, extra=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S, check=False, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout)


def gate_problems(res, workload):
    """Correctness checks on one driver result; returns the violations."""
    g, c = res["gate"], res["check"]
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(what)

    need(c["attempted"] >= 1, "no client messages attempted")
    need(c["net_sent"] >= c["net_delivered"] + c["net_dropped"],
         "net.sent < net.delivered + dropped")
    need(c["delivered"] + c["refused"] <= c["attempted"],
         "client delivered + refused > attempted")
    need(c["timely_in_deadline"] <= c["timely_samples"] <= c["timely_attempted"],
         "deadline hits > timely samples > timely attempts")
    need(c["timely_samples"] >= 1000, "fewer than 1000 timely samples")
    need(0.0 < g["delivery_ratio"] <= 1.0, "delivery_ratio outside (0, 1]")
    need(0.0 < g["deadline_met_ratio"] <= 1.0, "deadline_met_ratio outside (0, 1]")
    need(0.0 < g["timely_mean_ms"] and 0.0 < g["timely_p99_ms"], "timely latency <= 0")
    need(g["wire_overhead_ratio"] >= 1.0, "wire overhead below 1")
    if workload == "it_churn":
        need(c["churn_cycles"] >= 1, "it_churn scheduled no churn")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        out = build_dir()
        plain, traced = build(out)
        res = drive(plain, args.workload, args.seed, args.seconds)
        problems = gate_problems(res, args.workload)
        values = dict(res["e2e"])
        values.update({k: res["gate"][k] for k in GATED})
        if args.workload == "flows_parallel":
            ref = drive(plain, "flows_steady", args.seed, args.seconds, ["--gate-only"])
            if ref["gate"] != res["gate"]:
                problems.append("flows_parallel outputs differ from flows_steady: %s vs %s"
                                % (res["gate"], ref["gate"]))
        if args.trace:
            traces = os.path.join(out, "traces")
            os.makedirs(traces, exist_ok=True)
            spans = os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))
            tres = drive(traced, args.workload, args.seed, args.seconds, ["--spans", spans])
            problems += ["traced: " + p for p in gate_problems(tres, args.workload)]
            if tres["gate"] != res["gate"]:
                problems.append("tracing changed the deterministic outputs")
            values = dict(tres["layer"])
            # Both drivers ran the same workload, seed and window length.
            values["trace.overhead"] = (1.0 - tres["e2e"]["sim_s_per_ref_s"]
                                        / res["e2e"]["sim_s_per_ref_s"])
            log("spans: " + spans)
    except (RuntimeError, OSError, ValueError, KeyError, TypeError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: " + str(e))
        return 1

    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        log("perfbench: driver did not report " + ", ".join(missing))
        return 1
    for p in problems:
        log("GATE FAILED: " + p)
    log("%s seed %d: %d timely samples, %d attempted, %d delivered, digest32 %d"
        % (args.workload, args.seed, res["check"]["timely_samples"], res["check"]["attempted"],
           res["check"]["delivered"], res["gate"]["digest32"]))
    result = {
        "correct": not problems,
        "attempted": int(res["check"]["attempted"]),
        "failed": int(res["check"]["refused"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
