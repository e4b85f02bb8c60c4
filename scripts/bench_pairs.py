#!/usr/bin/env python3
"""Compare a base git ref against the working tree in alternating benchmark runs.

    python3 scripts/bench_pairs.py --base REF [--pairs N] [--seconds S]
        [--seed N] [--workload NAME]... [--metric NAME]... [--out DIR]
        [--json FILE]

Run from the root of a checkout.  Exports REF with `git archive` into
OUT/base and builds its benchmark/hyder_bench.exe into OUT/base-build;
builds the working tree's (uncommitted edits included) into
OUT/work-build.  OUT defaults to .bench_pairs.  Then, for each pair
and each workload, runs `hyder_bench.exe --child` once per side, the
side that goes first alternating from pair to pair, so slow drift of a
shared host lands on both sides alike.  One run at a time: nothing runs
beside a measured process.

For every end-to-end and per-layer metric (or only those named with
--metric) it prints both sides' median and interquartile range, how many
pairs the working tree won (by the metric's direction in BENCHMARK.json;
ties count for neither side), the ratio of the medians work/base, and whether
the work median beats the base median by more than the base IQR.  A run
whose output checks fail is reported and left out of the statistics.
--json writes every run's metrics to FILE.  Nothing under benchmark/
is written.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

EXE = os.path.join("benchmark", "hyder_bench.exe")


def build(root, build_dir):
    subprocess.run(
        ["dune", "build", "--root", root, "--build-dir", build_dir,
         "--cache=disabled", "./" + EXE],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "default", EXE)


def export(ref, dest):
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", ref], check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run(exe, root, workload, seed, seconds):
    """One child run from [root]; its record, or None if it failed."""
    p = subprocess.run(
        [exe, "--child", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=root, stdout=subprocess.PIPE, text=True)
    lines = [l for l in p.stdout.splitlines() if l.startswith("{")]
    if not lines:
        return None
    record = json.loads(lines[-1])
    if p.returncode != 0 or not record.get("correct"):
        return None
    return {k: v["value"] for part in ("end_to_end", "per_layer")
            for k, v in record[part].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def directions(path):
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["better"]
            for part in ("end_to_end", "per_layer") for m in spec[part]}


def report(workload, pairs, better, only):
    names = [n for n in pairs[0][0] if not only or n in only]
    print(f"== {workload}: {len(pairs)} pairs")
    print(f"{'metric':28} {'base median [q1-q3]':>30} {'work median [q1-q3]':>30}"
          f" {'wins':>6} {'ratio':>6}  beats IQR")
    for n in names:
        b = [p[0][n] for p in pairs]
        w = [p[1][n] for p in pairs]
        bq1, bm, bq3 = quartiles(b)
        wq1, wm, wq3 = quartiles(w)
        higher = better.get(n, "lower") == "higher"
        wins = sum(1 for x, y in zip(b, w) if (y > x if higher else y < x))
        gain = (wm - bm) if higher else (bm - wm)
        ratio = f"{wm / bm:6.3f}" if bm else "     -"
        side = lambda m, q1, q3: f"{m:.4g} [{q1:.4g}-{q3:.4g}]"
        print(f"{n:28} {side(bm, bq1, bq3):>30} {side(wm, wq1, wq3):>30}"
              f" {wins:>3}/{len(pairs):<2} {ratio}  "
              + ("yes" if gain > bq3 - bq1 else "no"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git ref to compare against")
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--metric", action="append", default=[])
    ap.add_argument("--out", default=".bench_pairs")
    ap.add_argument("--json")
    args = ap.parse_args()
    workloads = args.workload or ["sr-opt-1m", "si-plain-50k", "hot-write-50k"]

    out = os.path.abspath(args.out)
    base_root = os.path.join(out, "base")
    export(args.base, base_root)
    sides = [
        (base_root, build(base_root, os.path.join(out, "base-build"))),
        (os.getcwd(), build(os.getcwd(), os.path.join(out, "work-build"))),
    ]
    better = directions("BENCHMARK.json")

    results = {w: [] for w in workloads}
    for i in range(args.pairs):
        for w in workloads:
            order = (0, 1) if i % 2 == 0 else (1, 0)
            pair = [None, None]
            for side in order:
                root, exe = sides[side]
                pair[side] = run(exe, root, w, args.seed, args.seconds)
                tag = ("base", "work")[side]
                if pair[side] is None:
                    print(f"pair {i + 1} {w} {tag}: FAILED", file=sys.stderr)
                else:
                    print(f"pair {i + 1} {w} {tag}: commit_tps "
                          f"{pair[side]['commit_tps']:.0f}", file=sys.stderr)
            if None not in pair:
                results[w].append(pair)

    for w in workloads:
        if results[w]:
            report(w, results[w], better, set(args.metric))
        else:
            print(f"== {w}: no complete pair")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({w: [{"base": b, "work": k} for b, k in ps]
                       for w, ps in results.items()}, f, indent=1)


if __name__ == "__main__":
    main()
