#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs each workload once per seed (`--seeds 10` by default, seeds 1..N, on the
build `run.sh` leaves behind), then prints, per workload and metric, the median
and the distance between the first and third quartile as a share of the median,
next to the metric's bound. Exits non-zero when a spread (other than that of
`setup_s`) exceeds its bound.

    python3 benchmark/spread.py [--seeds N] [--first-seed S] [--workload NAME]...
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed):
    cmd = MANIFEST["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(MANIFEST["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect or failed operations: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in MANIFEST["workloads"]]
    ok = True
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run(workload, seed))
            print(f"# {workload} seed {seed} done", file=sys.stderr, flush=True)
        for metric in MANIFEST["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            exceeded = spread > metric["bound"] and metric["name"] != "setup_s"
            ok &= not exceeded
            print(f"{workload:<18} {metric['name']:<26} median {median:>16.4f} {metric['unit']:<4} "
                  f"spread {100 * spread:>6.2f}%  bound {100 * metric['bound']:>3.0f}%"
                  f"{'  EXCEEDED' if exceeded else ''}", flush=True)
            print("#   in seed order: " + " ".join(f"{v:.4g}" for v in values), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
