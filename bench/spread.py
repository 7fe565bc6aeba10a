#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs the command of BENCHMARK.json N times per workload, each time with
another --seed, and prints for every end-to-end metric the distance between
the first and third quartile of its N values as a share of their median,
next to the metric's bound. A benchmark is steady when every spread (setup_s
aside) is below a third of its bound.

    python3 bench/spread.py            # 10 runs per workload
    python3 bench/spread.py 5 sweep-resume
"""
import json
import statistics
import subprocess
import sys


def main():
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    only = sys.argv[2:]
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    worst = 0.0
    for wl in bench["workloads"]:
        name = wl["name"]
        if only and name not in only:
            continue
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(1, runs + 1):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            last = json.loads(out.strip().splitlines()[-1])
            if not last["correct"] or last["failed"]:
                sys.exit(f"{name} seed {seed}: incorrect run: {last}")
            for metric, v in last["metrics"].items():
                values[metric].append(v["value"])
        print(f"== {name} ({runs} runs)")
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q[2] - q[0]) / med
            share = spread / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, share)
            print(f"   {m['name']:<14} median {med:>14.6g} {m['unit']:<5} spread {100 * spread:5.1f}%"
                  f"  bound {100 * m['bound']:4.0f}%  spread/bound {share:4.2f}"
                  f"  [{' '.join(f'{v:.4g}' for v in vals)}]")
    print(f"largest spread/bound outside setup_s: {worst:.2f} (steady below 0.33)")


if __name__ == "__main__":
    main()
