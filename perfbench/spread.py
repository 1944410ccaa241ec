"""Run the benchmark once per seed and report each metric's median and quartile spread.

    python3 perfbench/spread.py --workload NAME --seeds 1 10 [--seconds S] [--trace 0]

Runs are sequential, from the current directory (the root of a checkout).
`--seconds` defaults to `run_seconds` in BENCHMARK.json.
The spread is (Q3 - Q1) / median, with the quartiles of
`statistics.quantiles(values, n=4)`, the figure the bounds in BENCHMARK.json
are set against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("FIRST", "LAST"))
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser.add_argument("--seconds", type=int, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    values, shares = {}, set()
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((result["failed"], result["attempted"]) if result["failed"] else 0)
        print(f"seed {seed}: exit {proc.returncode}, correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed, "
              + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        print(f"{name:45s} median {q2:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  spread {spread:.4f}")
    print(f"failed shares seen: {sorted(shares, key=str)}")


if __name__ == "__main__":
    main()
