#!/usr/bin/env python3
"""Runs castlebench once per seed and tabulates each metric's spread.

Run from the root of a Castle checkout:

    python3 castlebench/steadiness.py --workload ssb-cape --seconds 30 \
        --seeds 1-10 [--trace 0] [--raw runs.jsonl]

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread: the distance between
the quartiles as a share of the median. It exits non-zero if any run
fails or reports a wrong answer.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(spec):
    seeds = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--raw", help="append each run's result line to this JSONL file")
    args = ap.parse_args()

    values, units, ok = {}, {}, True
    for seed in seed_list(args.seeds):
        t0 = time.time()
        p = subprocess.run(
            ["bash", "castlebench/run.sh", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        wall = time.time() - t0
        if p.returncode != 0:
            ok = False
            print(f"seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
            continue
        result = json.loads(p.stdout.strip().splitlines()[-1])
        if args.raw:
            with open(args.raw, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, "wall_s": wall,
                                    "result": result}) + "\n")
        print(f"seed {seed}: {wall:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
        ok = ok and result["correct"] and result["failed"] == 0
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"| {args.workload} metric | unit | median | Q1 | Q3 | spread |")
    print("|---|---|---|---|---|---|")
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else 0.0
        print(f"| `{name}` | {units[name]} | {med:.6g} | {q1:.6g} | {q3:.6g} | {100 * spread:.1f}% |")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
