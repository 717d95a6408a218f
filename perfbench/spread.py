#!/usr/bin/env python3
"""Run-to-run spread of the benchmark: one workload, several seeds.

    python3 perfbench/spread.py --workload certify-large --seeds 1-10 --seconds 20

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric its median and the distance between its first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the bound in ``BENCHMARK.json``.  The raw results go to
``perfbench/out/spread-<workload>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    args = p.parse_args()
    if len(seeds(args.seeds)) < 2:
        p.error("a spread needs at least two seeds")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"spread-{args.workload}.json"), "w") as fh:
        json.dump(runs, fh, indent=1)

    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{args.workload}: {len(runs)} runs, failed shares {sorted(shares)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:34s} median {med:12.6g} {runs[0]['metrics'][name]['unit']:6s} "
              f"spread {spread:7.4f}  bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
