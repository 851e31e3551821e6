#!/usr/bin/env python3
"""Steadiness check for the opdw benchmark.

Runs every workload once per seed, for --runs seeds, in one or two sets
whose order alternates from round to round (A B, B A, A B, ...). Each run
is its own process (perfbench/run.py). For every end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4), and the
relative quartile spread (q3 - q1) / median, and flags any metric whose
spread exceeds its bound in BENCHMARK.json. With two sets it also prints
how far the second set's median moved from the first's in the metric's
"worse" direction, and flags moves beyond the bound. Run from the root of
a source checkout:

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workloads elastic --runs 5

Every run's result line is appended to .pdwbench/steady.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit("%s seed %d exited %d" % (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(out.stderr)
        print("!! %s seed %d: correct=%s failed=%d"
              % (workload, seed, result["correct"], result["failed"]))
    return result, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="benchmark steadiness check")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10, help="seeds per set")
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--seed0", type=int, default=1, help="first seed")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]

    os.makedirs(".pdwbench", exist_ok=True)
    log = open(os.path.join(".pdwbench", "steady.jsonl"), "a")
    values = {}  # (set, workload, metric) -> [value]
    for i in range(args.runs):
        order = range(args.sets) if i % 2 == 0 else reversed(range(args.sets))
        for s in order:
            for w in workloads:
                seed = args.seed0 + i
                result, wall = run_once(spec, w, seed, args.seconds, args.trace)
                log.write(json.dumps({"set": s, "workload": w, "seed": seed,
                                      "wall_s": wall, "result": result}) + "\n")
                log.flush()
                for name, m in result["metrics"].items():
                    values.setdefault((s, w, name), []).append(m["value"])
                print("set %d %-8s seed %-4d %5.1f s  ok" % (s, w, seed, wall),
                      flush=True)

    print()
    print("%-8s %-18s %-4s %12s %12s %12s %8s %6s" %
          ("workload", "metric", "set", "median", "q1", "q3", "spread", "bound"))
    flagged = 0
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            meds = []
            for s in range(args.sets):
                vals = values.get((s, w, name))
                if not vals:
                    continue
                med, q1, q3, sp = spread(vals)
                meds.append(med)
                flag = ""
                if bound is not None and sp > bound:
                    flag, flagged = "  SPREAD>BOUND", flagged + 1
                elif bound is not None and sp > bound / 3:
                    flag = "  spread>bound/3"
                print("%-8s %-18s %-4d %12.5g %12.5g %12.5g %8.4f %6s%s" %
                      (w, name, s, med, q1, q3, sp,
                       "" if bound is None else bound, flag))
            if len(meds) == 2 and bound is not None and meds[0]:
                worse = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                flag = ""
                if worse > bound:
                    flag, flagged = "  DRIFT>BOUND", flagged + 1
                print("%-8s %-18s drift of set 1 vs set 0 (worse direction): %+.4f%s"
                      % (w, name, worse, flag))
    print("\n%d flag(s)" % flagged)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
