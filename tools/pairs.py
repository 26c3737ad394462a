#!/usr/bin/env python3
"""Compare two oclick revisions on perfbench with alternating run pairs.

    python3 tools/pairs.py --parent REV [--pairs 10] [--seconds 15]
        [--workloads iprouter,cascade,churn] [--seed 2001]

Run it from the root of an oclick checkout. It extracts REV with
`git archive` into a temporary directory, then runs
`perfbench/run.py --trace 0` there and in the working tree, one process
at a time, alternating which side goes first. Pair k of a workload runs
both sides on seed SEED + k, so the two runs of a pair see the same
traffic.

For each workload and end-to-end metric it prints each side's median
and quartiles, the ratio of the medians (change / parent), the pairs
the change won (ties count for neither side), and whether the gain rule
holds: the change won at least 9 of every 10 pairs, the gap between
the medians is larger than the parent's interquartile range, and the
change has no more runs that are not correct (or report failed checks)
than the parent ("n/a" below 10 pairs, where the rule does not apply).
The host's speed drifts during a run, so it also prints each mode's
in-run ratio to `fused_batch`. Metric directions come from
BENCHMARK.json. Each pair's `mpps.interp` goes to stderr as it
finishes.

The script only reads perfbench/; the temporary directory, with the
parent's build in it, is removed at exit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def fail(msg):
    print("pairs: " + msg, file=sys.stderr)
    sys.exit(2)


def directions():
    """Metric name -> True when higher is better."""
    better = {}
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        for m in spec.get("end_to_end", []) + spec.get("per_layer", []):
            better[m["name"]] = m.get("better") == "higher"
    except (OSError, ValueError, KeyError):
        pass
    return better


def run_side(root, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        fail("%s seed %d in %s failed (exit %d):\n%s"
             % (workload, seed, root, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0], xs[0])
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return (q1, q2, q3)


def report(workload, runs, higher):
    parent = [r for r, _ in runs]
    change = [c for _, c in runs]
    names = sorted(set(parent[0]["metrics"]) & set(change[0]["metrics"]))
    def bad(side):
        return sum(1 for r in side
                   if not r.get("correct") or r.get("failed", 0) != 0)
    more_bad = bad(change) > bad(parent)
    print("\n== %s: %d pairs, runs not correct: parent %d, change %d ==" % (
        workload, len(runs), bad(parent), bad(change)))
    print("%-24s %26s %26s %7s %6s %5s" % (
        "metric", "parent q1/med/q3", "change q1/med/q3", "ratio", "won",
        "gain"))
    for name in names:
        up = higher.get(name, name.startswith("mpps."))
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pq, cq = quartiles(p), quartiles(c)
        won = sum(1 for a, b in zip(p, c) if (b > a if up else b < a))
        gap = (cq[1] - pq[1]) if up else (pq[1] - cq[1])
        if len(runs) < 10:
            gain = "n/a"
        elif (not more_bad and won * 10 >= 9 * len(runs)
              and gap > (pq[2] - pq[0])):
            gain = "yes"
        else:
            gain = "no"
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        print("%-24s %8.4g/%8.4g/%8.4g %8.4g/%8.4g/%8.4g %7.3f %3d/%-2d %5s" % (
            name, pq[0], pq[1], pq[2], cq[0], cq[1], cq[2], ratio, won,
            len(runs), gain))
    modes = [n for n in names if n.startswith("mpps.")
             and n != "mpps.fused_batch"]
    if "mpps.fused_batch" in names:
        print("in-run ratio to fused_batch (min/median/max):")
        for name in modes:
            def inrun(side):
                return [r["metrics"][name]["value"]
                        / r["metrics"]["mpps.fused_batch"]["value"]
                        for r in side]
            p, c = inrun(parent), inrun(change)
            print("  %-22s parent %.3f/%.3f/%.3f  change %.3f/%.3f/%.3f" % (
                name, min(p), statistics.median(p), max(p), min(c),
                statistics.median(c), max(c)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--workloads", default="iprouter,cascade,churn")
    ap.add_argument("--seed", type=int, default=2001,
                    help="seed of the first pair; pair k uses SEED + k")
    args = ap.parse_args()
    if not os.path.exists(os.path.join("perfbench", "run.py")):
        fail("run from the root of an oclick checkout")
    higher = directions()
    with tempfile.TemporaryDirectory(prefix="oclick-pairs-") as tmp:
        archive = subprocess.run(["git", "archive", args.parent],
                                 capture_output=True)
        if archive.returncode != 0:
            fail("git archive %s: %s" % (args.parent,
                                         archive.stderr.decode()[-500:]))
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout,
                       check=True)
        for workload in args.workloads.split(","):
            runs = []
            for k in range(args.pairs):
                seed = args.seed + k
                order = [("parent", tmp), ("change", ".")]
                if k % 2 == 1:
                    order.reverse()
                got = {}
                for side, root in order:
                    got[side] = run_side(root, workload, seed, args.seconds)
                runs.append((got["parent"], got["change"]))
                print("%s pair %d (seed %d): interp %.3f -> %.3f Mpps" % (
                    workload, k, seed,
                    got["parent"]["metrics"]["mpps.interp"]["value"],
                    got["change"]["metrics"]["mpps.interp"]["value"]),
                    file=sys.stderr, flush=True)
            report(workload, runs, higher)


if __name__ == "__main__":
    main()
