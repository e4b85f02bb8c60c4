#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds benchmark/hyder_bench.exe with
dune into .bench_build/, runs the workload (its metric lines pass
through), and prints as the last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics (from an untraced and a traced window)
with --trace 1.  Exits non-zero if the build fails or an output check
does.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(BUILD_DIR, "default", "benchmark", "hyder_bench.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--cache=disabled", "./benchmark/hyder_bench.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("benchmark build failed")

    os.makedirs(OUT_DIR, exist_ok=True)
    record_path = os.path.join(OUT_DIR, args.workload + ".json")
    if os.path.exists(record_path):
        os.remove(record_path)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", record_path]
    if args.trace:
        cmd += ["--trace", os.path.join(OUT_DIR, "trace")]
    sys.stdout.flush()
    run = subprocess.run(cmd)
    if not os.path.exists(record_path):
        sys.exit("benchmark produced no record")
    with open(record_path) as f:
        (record,) = json.load(f)

    correct = run.returncode == 0 and record["correct"]
    metrics = record["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": correct,
        "attempted": record["measured_txns"],
        "failed": record["failures"],
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
