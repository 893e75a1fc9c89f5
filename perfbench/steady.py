#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly and summarises the
end-to-end metrics.

    python3 perfbench/steady.py [--workloads a,b] [--runs N] [--sets 1|2]
                                [--seconds S] [--seed-base B] [--smoke]

For every workload and end-to-end metric it prints the median and the
quartiles of the runs (Python's statistics.quantiles(values, n=4)) and
the spread, (q3 - q1) / median.  Each run gets its own seed.  With
--sets 2 it makes two sets of runs (with different seeds) and reports
whether they agree: every spread except setup_s's within the metric's
bound from BENCHMARK.json, each second median no worse than the first by
more than the bound, and the same share of failed operations.  --smoke
makes two one-second runs of each workload and only checks that every run
ends with a correct result; the benchmark's own test uses it.

Run it from the root of a checkout.  Exits 0 when every check held.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "..", "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def run_once(workload, seed, seconds):
    cmd = list(SPEC["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    d = (second - first) / first
    return d if metric["better"] == "lower" else -d


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    sys.stdout.reconfigure(line_buffering=True)
    if a.smoke:
        a.runs, a.sets, a.seconds = 2, 1, 1
    ok = True
    for w in a.workloads.split(","):
        sets = []
        for s in range(a.sets):
            results = []
            for i in range(a.runs):
                seed = a.seed_base + 1000 * s + i
                res = run_once(w, seed, a.seconds)
                if res is None or not res["correct"]:
                    print("%s seed %d: run failed or incorrect" % (w, seed))
                    ok = False
                    continue
                results.append(res)
                print("%s seed %d: %s" % (w, seed, " ".join(
                    "%s=%.5g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))))
            sets.append(results)
        if a.smoke or any(len(r) < 2 for r in sets):
            print("%s: %d correct runs" % (w, sum(len(r) for r in sets)))
            ok = ok and all(len(r) == a.runs for r in sets)
            continue
        shares = [sorted({r["failed"] / r["attempted"] for r in res}) for res in sets]
        print("%s: failed share per set %s" % (w, shares))
        if any(len(s) != 1 for s in shares) or len({s[0] for s in shares}) != 1:
            ok = False
            print("  FAIL: failed share differs between runs")
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, res in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in res]
                q1, q2, q3, spread = summarise(vals)
                medians.append(q2)
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag, ok = "  FAIL: spread over bound", False
                elif name != "setup_s" and spread > bound / 3:
                    flag = "  (spread over a third of the bound)"
                print("  set %d %-16s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f "
                      "bound %.2f%s" % (s + 1, name, q2, q1, q3, spread, bound, flag))
            if len(medians) == 2:
                d = worse_by(m, medians[0], medians[1])
                flag = "" if d <= bound else "  FAIL: second median worse by more than the bound"
                ok = ok and d <= bound
                print("  %-22s second set worse by %.4f (bound %.2f)%s" % (name, d, bound, flag))
    print("steady: %s" % ("ok" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
