#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly, one seed per run, and
report every end-to-end metric's median and quartiles next to its bound.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads paper-small,serve-mix]
                                [--save FILE] [--against FILE]

Run from the repository root. The spread of a metric is the distance
between its first and third quartile as a share of its median, with
quartiles as statistics.quantiles(values, n=4) gives them; a spread above a
third of the bound is flagged. --save writes the raw results as JSON;
--against compares the medians with such a file, flagging a metric whose
median is worse than there by more than its bound, and a share of failed
operations that differs. The exit code is 1 if anything was flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=900, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def worse(metric, new, old):
    """How much worse new is than old, as a share of old."""
    if metric["better"] == "lower":
        return (new - old) / old
    return (old - new) / old


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--save", default=None)
    ap.add_argument("--against", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = ([w["name"] for w in bench["workloads"]] if args.workloads is None
             else args.workloads.split(","))
    previous = {}
    if args.against:
        with open(args.against) as f:
            previous = json.load(f)

    flagged = False
    saved = {}
    for w in names:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(bench["command"], w, seed, bench["run_seconds"])
            results.append(r)
            print(f"{w} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}",
                  file=sys.stderr)
        saved[w] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{w}: {args.runs} runs, failed share "
              f"{sorted(shares)}, all correct: "
              f"{all(r['correct'] for r in results)}")
        if len(shares) != 1 or not all(r["correct"] for r in results):
            flagged = True
        if w in previous:
            old_shares = {r["failed"] / r["attempted"] for r in previous[w]}
            if old_shares != shares:
                print(f"  failed share differs from --against: {old_shares}")
                flagged = True
        print(f"  {'metric':<18} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  note")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            note = ""
            if m["name"] != "setup_s" and spread > m["bound"] / 3:
                note = "spread above a third of the bound"
                flagged = True
            if w in previous:
                old = statistics.median(
                    r["metrics"][m["name"]]["value"] for r in previous[w])
                shift = worse(m, med, old)
                note += f" vs --against {shift:+.3f}"
                if shift > m["bound"]:
                    note += " WORSE THAN BOUND"
                    flagged = True
            print(f"  {m['name']:<18} {q1:12.4f} {med:12.4f} {q3:12.4f} "
                  f"{spread:8.3f} {m['bound']:6.2f}  {note}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
