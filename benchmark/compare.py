#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmark/compare.py --self-test

Each directory holds the JSON files `hyder_bench.exe --json FILE` writes,
one per run; parent and change runs are paired in file-name order, so
name them alike (run01.json, run02.json, ...) and alternate which side
runs first.  For each workload and end-to-end metric this prints both
sides' median and quartiles (statistics.quantiles, n=4), the share of
pairs the change wins (ties count for neither side), and a verdict:

  improved      the change wins at least 9 of 10 pairs and the medians
                differ by more than the parent's quartile spread;
  unresolved    the parent's quartile spread, as a share of its median, is
                wider than the metric's bound, and not every change run
                beats every parent run;
  worse         the change's median is worse than the parent's by more
                than the bound (a share of the parent's median);
  within bound  otherwise.

A failed-share check follows for each workload: transactions that failed
the output check, and the abort rate, may not rise.  Bounds and
directions come from BENCHMARK.json.  Exits 1 when any metric is worse or
any check fails.
"""

import contextlib
import io
import json
import os
import statistics
import sys
import tempfile

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "..", "BENCHMARK.json")


def load_runs(directory):
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            data = json.load(f)
        for record in data if isinstance(data, list) else [data]:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, median, q3 = statistics.quantiles(xs, n=4)
    return q1, median, q3


def verdict(parent, change, better, bound):
    """Return (verdict, pair win fraction) for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_fraction = wins / len(pairs)
    gain = sign * (cmed - pmed)
    spread = (pq3 - pq1) / abs(pmed) if pmed else 0.0
    every_run_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if win_fraction >= 0.9 and gain > 0 and gain > pq3 - pq1:
        return "improved", win_fraction
    if spread > bound and not every_run_better:
        return "unresolved", win_fraction
    if -gain > bound * abs(pmed):
        return "worse", win_fraction
    return "within bound", win_fraction


def values(records, metric, kind="end_to_end"):
    return [r[kind][metric]["value"] for r in records]


def compare(parent_dir, change_dir):
    with open(BENCHMARK_JSON) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    ok = True
    print("%-16s %-14s %31s %31s %6s  %s" % (
        "workload", "metric", "parent q1/median/q3",
        "change q1/median/q3", "wins", "verdict"))
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        for m in metrics:
            name = m["name"]
            pv, cv = values(p_runs, name), values(c_runs, name)
            v, wins = verdict(pv, cv, m["better"], m["bound"])
            ok = ok and v != "worse"
            print("%-16s %-14s %31s %31s %5.0f%%  %s" % (
                workload, name,
                "%.4g/%.4g/%.4g" % quartiles(pv),
                "%.4g/%.4g/%.4g" % quartiles(cv), 100 * wins, v))
        def failed_share(runs):
            return (sum(r["failures"] for r in runs)
                    / max(1, sum(r["measured_txns"] for r in runs)))
        pf, cf = failed_share(p_runs), failed_share(c_runs)
        pa = statistics.median(
            values(p_runs, "pipeline.abort_rate", "per_layer"))
        ca = statistics.median(
            values(c_runs, "pipeline.abort_rate", "per_layer"))
        fine = cf <= pf and ca <= pa
        ok = ok and fine
        print("%-16s failed share %.4g -> %.4g, abort rate %.4g -> %.4g: %s" % (
            workload, pf, cf, pa, ca,
            "ok" if fine else "MORE FAILURES, gains here do not count"))
    missing = set(parent) ^ set(change)
    if missing:
        print("workloads on one side only: " + ", ".join(sorted(missing)))
    return ok


def self_test():
    assert quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 5.5, 8.25)
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    faster = [x * 1.05 for x in base]
    assert verdict(base, faster, "higher", 0.1) == ("improved", 1.0)
    assert verdict(base, base, "higher", 0.1) == ("within bound", 0.0)
    assert verdict(base, [x * 0.8 for x in base], "higher", 0.1)[0] == "worse"
    assert verdict(base, [x * 1.2 for x in base], "lower", 0.1)[0] == "worse"
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 80.0, 120.0, 90.0]
    assert verdict(noisy, noisy, "higher", 0.1)[0] == "unresolved"
    with open(BENCHMARK_JSON) as f:
        names = [m["name"] for m in json.load(f)["end_to_end"]]
    with tempfile.TemporaryDirectory() as parent, \
            tempfile.TemporaryDirectory() as change:
        for i in range(4):
            for directory in (parent, change):
                record = {
                    "workload": "w", "failures": 0, "measured_txns": 100,
                    "end_to_end": {n: {"value": 1.0 + i / 100} for n in names},
                    "per_layer": {"pipeline.abort_rate": {"value": 0.1}},
                }
                with open(os.path.join(directory, "run%d.json" % i), "w") as f:
                    json.dump([record], f)
        with contextlib.redirect_stdout(io.StringIO()):
            assert compare(parent, change)
    print("compare.py self-test ok")


def main():
    if sys.argv[1:] == ["--self-test"]:
        self_test()
    elif len(sys.argv) == 3:
        sys.exit(0 if compare(sys.argv[1], sys.argv[2]) else 1)
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
