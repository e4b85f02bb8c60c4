#!/usr/bin/env python3
"""Regression gates over the benchmark harness's JSON reports.

With --macro, gates a `macro` run (see `make bench-macro`):

  1. the `seq` row is present, with sane throughput, a measured fm
     critical path and every stage's minor words sampled;
  2. allocation budget: ds minor words per decoded node;
  3. when a committed baseline is given, no regression of the fm
     critical path and no growth of the wire format.  The GC words/txn
     comparison is tight (the fm loop's minor allocation is
     deterministic, measured with the exact Gc.minor_words counter); the
     fm-ns/txn comparison is loose, because wall time on a shared CI box
     is not.  The wire-size comparison allows 1%: the macro stream is
     fixed-seed and byte-identical run to run, so its mean encoded size
     moves only when the encoding does.

With --flight, sanity-checks a flight-analysis report (the JSON written
by `hyder-cli analyze --json`) instead: for every recorder label, records were
captured, no wait/service entry went negative, the per-record stage sums
never exceed the measured end-to-end time (the recorder's chain
invariant makes each record's sum exactly t_last - t_submit <= e2e), and
the p50 stage-sum covers the p50 end-to-end latency within 5% — i.e. the
waterfall genuinely decomposes the measured latency rather than
sampling a fraction of it.
"""

import json
import sys

# fm minor words/txn are exact and deterministic for a fixed seed; allow
# only rounding-level drift.  Promoted words are quantized to minor
# collections, so they breathe with collection timing.
GC_MINOR_TOLERANCE = 1.05
# Wall-clock metric on shared CI hardware.
FM_NS_TOLERANCE_SEQ = 1.75
# Mean encoded intention size of the macro stream.  The stream is fixed,
# so the figure is exact run to run; 1% over the baseline is a format
# change, such as redundant bytes returning to the wire.
WIRE_BYTES_TOLERANCE = 1.01
# The stage waterfall must account for the measured end-to-end p50; the
# chain invariant makes coverage exactly 1.0 up to clock jitter, and the
# acceptance contract allows 5%.
FLIGHT_COVERAGE_SLACK = 0.05
# Driver-side ds allocation budget, in minor words per decoded node
# (ds_minor over ds_nodes_per_txn).  The flyweight-view ds path builds
# only its per-node index arrays, about 8.4 words per node; node
# allocation lands in the mz column as meld materializes, and building
# heap nodes in ds again would add at least 14 words per node.
DS_MINOR_PER_NODE_BUDGET = 10.0


def fail(msg: str) -> None:
    print(f"bench gate: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load_rows(path: str, figure: str) -> dict:
    with open(path) as f:
        report = json.load(f)
    return {
        r["runtime"]: r
        for r in report.get("runs", [])
        if r.get("figure") == figure
    }


def check_macro(run_path: str, baseline_path: str | None) -> None:
    rows = load_rows(run_path, "macro")
    r = rows.get("seq")
    if r is None:
        fail(f"no seq macro row in the report (rows: {sorted(rows)}; "
             "run `make bench-macro`?)")
    if not r["melds_per_s"] > 0:
        fail("seq: no melds measured")
    if not r["fm_ns_per_txn"] > 0:
        fail("seq: fm critical path not measured")
    gcw = r["gc_words_per_txn"]
    for col in ("pm_minor", "gm_minor", "fm_minor", "mz_minor"):
        if not gcw.get(col, 0) > 0:
            fail(f"seq: {col} words/txn not sampled: {gcw.get(col)}")

    ds = gcw.get("ds_minor")
    if ds is None:
        fail("seq: row is missing the ds_minor column")
    nodes = r.get("ds_nodes_per_txn")
    if not nodes:
        fail("seq: row is missing the ds_nodes_per_txn column")
    if not ds / nodes < DS_MINOR_PER_NODE_BUDGET:
        fail(f"seq: ds minor words/node {ds / nodes:.2f} "
             f"({ds:.1f} w/txn over {nodes:.1f} nodes/txn) not under "
             f"the budget of {DS_MINOR_PER_NODE_BUDGET:.0f}")
    wire = r.get("wire_bytes_per_txn")
    if not wire:
        fail("seq: row is missing the wire_bytes_per_txn column")
    msgs = [f"ds {ds / nodes:.2f} minor words/node"]

    cur_gc = gcw["fm_minor"]
    cur_ns = r["fm_ns_per_txn"]
    if baseline_path is not None:
        b = load_rows(baseline_path, "macro").get("seq")
        if b is None:
            fail(f"no seq macro row in the baseline {baseline_path}")
        base_gc = b["gc_words_per_txn"]["fm_minor"]
        if cur_gc > base_gc * GC_MINOR_TOLERANCE:
            fail(f"seq: fm minor words/txn regressed "
                 f"{base_gc:.1f} -> {cur_gc:.1f} "
                 f"(tolerance x{GC_MINOR_TOLERANCE})")
        base_ns = b["fm_ns_per_txn"]
        if cur_ns > base_ns * FM_NS_TOLERANCE_SEQ:
            fail(f"seq: fm ns/txn regressed {base_ns:.0f} -> {cur_ns:.0f} "
                 f"(tolerance x{FM_NS_TOLERANCE_SEQ})")
        base_wire = b.get("wire_bytes_per_txn")
        if not base_wire:
            fail(f"the baseline {baseline_path} carries no "
                 "wire_bytes_per_txn")
        if wire > base_wire * WIRE_BYTES_TOLERANCE:
            fail(f"seq: wire bytes/txn grew {base_wire:.2f} -> {wire:.2f} "
                 f"(tolerance x{WIRE_BYTES_TOLERANCE})")
        msgs.append(f"fm {cur_ns:.0f}ns/txn (base {base_ns:.0f}) "
                    f"{cur_gc:.1f}w/txn (base {base_gc:.1f}); "
                    f"wire {wire:.2f} B/txn (base {base_wire:.2f})")
    else:
        msgs.append(f"fm {cur_ns:.0f}ns/txn {cur_gc:.1f}w/txn; "
                    f"wire {wire:.2f} B/txn")

    print("bench-macro gate: OK: " + "; ".join(msgs))


def check_flight(report_path: str) -> None:
    with open(report_path) as f:
        report = json.load(f)
    backends = report.get("backends", [])
    if not backends:
        fail("no backends in the flight report (empty --flight dump?)")

    msgs = []
    for b in backends:
        label = b.get("label") or "(unlabeled)"
        if b["txns"] <= 0:
            fail(f"{label}: no flight records")
        if b["negative_waits"] != 0:
            fail(f"{label}: {b['negative_waits']} negative wait/service "
                 "entries (the chain invariant broke)")
        # Attributed stage time can never exceed measured end-to-end time:
        # per record the sum is t_last - t_submit <= t_done - t_submit.
        # Aggregate totals, with a hair of float slack.
        attr_us = sum(s["wait_total_us"] + s["service_total_us"]
                      for s in b["stages"])
        e2e_total_us = b["e2e_us"]["mean"] * b["txns"]
        if attr_us > e2e_total_us * 1.001:
            fail(f"{label}: attributed stage time {attr_us:.0f}us exceeds "
                 f"total end-to-end time {e2e_total_us:.0f}us")
        cov = b["coverage_p50"]
        lo, hi = 1 - FLIGHT_COVERAGE_SLACK, 1 + FLIGHT_COVERAGE_SLACK
        if not lo <= cov <= hi:
            fail(f"{label}: stage-sum p50 covers only {cov:.3f} of the "
                 f"end-to-end p50 (need within [{lo:.2f}, {hi:.2f}])")
        msgs.append(f"{label} {b['txns']} txns, e2e p50 "
                    f"{b['e2e_us']['p50']:.1f}us, coverage {cov:.3f}, "
                    f"critical path {b['critical_path']['stage']}")

    print("flight gate: OK: " + "; ".join(msgs))


def main() -> None:
    argv = sys.argv[1:]
    if len(argv) >= 2 and argv[0] == "--macro":
        check_macro(argv[1], argv[2] if len(argv) > 2 else None)
    elif len(argv) >= 2 and argv[0] == "--flight":
        check_flight(argv[1])
    else:
        fail("usage: check_bench_smoke.py --macro RUN.json [BASELINE.json] "
             "| --flight REPORT.json")


if __name__ == "__main__":
    main()
