#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload infer_wide --seeds 1-10

Run from the root of a checkout.  For each end-to-end metric it prints the
median of the per-seed values and the distance between their first and third
quartiles (statistics.quantiles, n=4) as a share of the median, next to the
metric's bound from BENCHMARK.json.  --json writes the per-seed values and
these summaries, with the environment of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--json", default=None, help="write the values and summary here")
    args = p.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    values: dict[str, list[float]] = {"op_wall_s_p50": []}
    environment = None
    per_seed = []
    all_correct = True
    for seed in parse_seeds(args.seeds):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result, details = json.loads(lines[-1]), json.loads(lines[-2])
        environment = environment or details["environment"]
        all_correct &= result["correct"] and result["failed"] == 0
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        values["op_wall_s_p50"].append(details["op_wall_s_p50"])
        per_seed.append({"seed": seed, "op_wall_s": details["op_wall_s"],
                         "speed_factors": details["speed_factors"],
                         "digests": details["digests"]})
        print(f"seed {seed} ({time.time() - t0:.0f} s): correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
              + f" wall_p50={details['op_wall_s_p50']:.4g}", flush=True)

    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med, "bound": bounds.get(name)}
        print(f"{args.workload} {name}: median {med:.6g} spread {(q3 - q1) / med:.4f} "
              f"(bound {bounds.get(name)})")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "seeds": parse_seeds(args.seeds), "environment": environment,
                       "metrics": summary, "runs": per_seed}, fh, indent=1)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
