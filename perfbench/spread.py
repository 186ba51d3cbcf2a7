#!/usr/bin/env python3
"""Run the benchmark several times per workload and report each
end-to-end metric's median and spread (interquartile range over median),
against the bounds in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py [--runs 10] [--workload NAME ...]
                                [--json out.json] [--against earlier.json]

Run i gets seed 1000 + i. A spread above a third of the metric's bound is
flagged: the benchmark is meant to stay well inside its bounds. --json
keeps the raw values; --against compares this set's medians with those
of an earlier --json set and flags a metric whose median got worse by
more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

SEED0 = 1000


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--json")
    ap.add_argument("--against")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.load(open(args.against)) if args.against else {}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    raw = {}
    ok = True
    for w in workloads:
        values = {name: [] for name in metrics}
        walls = []
        for i in range(args.runs):
            seed = SEED0 + i
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            t = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.time() - t)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{w} seed {seed}: INCORRECT\n{out.stdout[-3000:]}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        raw[w] = values
        print(f"== {w}: {args.runs} runs, wall mean {statistics.mean(walls):.1f} s, max {max(walls):.1f} s")
        for name, vs in values.items():
            m = metrics[name]
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) >= 2 else [med, med, med]
            spread = (q[2] - q[0]) / med
            line = f"  {name:20s} median {med:<12.6g} spread {spread:.3f}"
            # setup_s is gated on its median only, not on its spread
            # within a set, so its spread is shown but not flagged
            if name != "setup_s" and not spread < m["bound"] / 3:
                line += f"  <-- above a third of bound {m['bound']}"
                ok = False
            if w in earlier:
                before = statistics.median(earlier[w][name])
                worse = (med - before) / before
                if m["better"] == "higher":
                    worse = -worse
                line += f"  earlier {before:<12.6g} worse by {worse:+.3f}"
                if worse > m["bound"]:
                    line += "  <-- beyond bound"
                    ok = False
            print(line)
        sys.stdout.flush()
    if args.json:
        json.dump(raw, open(args.json, "w"), indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
