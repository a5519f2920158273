#!/usr/bin/env python3
"""Steadiness command: run one workload N times and summarise each metric.

Run from the repository root:

    python3 perfbench/steady.py --workload view-full --runs 10 --seconds 30

Each run uses its own seed (--seed-base, --seed-base + 1, ...), as the
bound check does; --same-seed repeats --seed-base instead, which is how
to see that the modelled-card, allocation and heap figures repeat
exactly. Runs are untraced (--trace 0): only untraced runs feed the
end-to-end bounds. Before every run a fixed integer loop is timed
(main.exe --noise-loop) as the machine's noise floor. The summary gives,
per metric, the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median, and flags metrics that read the same in every
run. The exit code is 1 if any run fails or reports failed operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(args):
    out = subprocess.run([sys.executable, RUN] + args, cwd=ROOT,
                         capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit("perfbench: run %s exited %d" % (args, out.returncode))
    return out.stdout.strip().splitlines()[-1]


def summary(name, unit, values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else 0.0
    same = "  identical" if len(set(values)) == 1 else ""
    print("%-26s %14.6g %14.6g %14.6g %8.4f %-7s%s"
          % (name, med, q1, q3, spread, unit, same))
    return spread


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--same-seed", action="store_true")
    a = p.parse_args()
    metrics, noise, shares, bad = {}, [], [], False
    for i in range(a.runs):
        seed = a.seed_base if a.same_seed else a.seed_base + i
        noise.append(float(run(["--noise-loop"]).split()[0]))
        t0 = time.monotonic()
        res = json.loads(run(["--workload", a.workload, "--seed", str(seed),
                              "--seconds", str(a.seconds),
                              "--trace", "0"]))
        wall = time.monotonic() - t0
        bad |= res["failed"] > 0 or not res["correct"]
        shares.append(res["failed"] / res["attempted"])
        print("run %d seed %d (%.0f s): attempted %d failed %d  %s" % (
            i + 1, seed, wall, res["attempted"], res["failed"],
            " ".join("%s=%.6g" % (k, v["value"])
                     for k, v in res["metrics"].items())), flush=True)
        for k, v in res["metrics"].items():
            metrics.setdefault(k, (v["unit"], []))[1].append(v["value"])
    print("\n%-26s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3",
                                           "spread"))
    for k, (unit, values) in metrics.items():
        summary(k, unit, values)
    summary("noise_loop_s", "s", noise)
    print("failed share per run: %s" % sorted(set(shares)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
