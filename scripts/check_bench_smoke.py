#!/usr/bin/env python3
"""Regression gates over the benchmark harness's JSON reports.

With --macro, gates a `macro` run (see `make bench-macro`):

  1. the `seq` row is present, with sane throughput, a measured fm
     critical path and every stage's minor words sampled, and the stage
     timers (ds, pm, gm, fm) cover at least DRIVER_SHARE_FLOOR of the
     wall time, so untimed work on the serial path cannot grow unseen;
  2. when a committed baseline is given, no regression of the fm
     critical path, of the total allocation and of the wire format.  The
     GC words/txn comparisons are tight (minor allocation is
     deterministic for the fixed stream; each stage's `minor_words` in
     the pipeline's Counters is an exact Gc.minor_words delta over the
     same bracket as its `seconds`): fm minor words, and the sum of every
     `*_minor` column, which sees allocation moving between stages as
     well as growing.  The fm-ns/txn comparison is loose, because wall
     time on a shared CI box is not.  The wire-size comparison allows 1%:
     the macro stream is fixed-seed and byte-identical run to run, so its
     mean encoded size moves only when the encoding does.

With --flight, sanity-checks a flight-analysis report (the JSON written
by `hyder-cli analyze --json`) instead: for every recorder label, records were
captured, no wait/service entry went negative, the per-record stage sums
never exceed the measured end-to-end time (the recorder's chain
invariant makes each record's sum exactly t_last - t_submit <= e2e), and
the p50 stage-sum covers the p50 end-to-end latency within 5% — i.e. the
waterfall genuinely decomposes the measured latency rather than
sampling a fraction of it.

With --smoke, checks a `bench/main.exe --json` report (BENCH_SMOKE.json)
carries the stage-cost calibration its cluster figures ran on: a
top-level `calibration` object with every model's coefficients and its
held-out residuals at the default scale and at 50k records.
"""

import json
import sys

# fm and total minor words/txn are exact and deterministic for a fixed
# seed; allow only rounding-level drift.
GC_MINOR_TOLERANCE = 1.05
# Wall-clock metric on shared CI hardware.
FM_NS_TOLERANCE_SEQ = 1.75
# Mean encoded intention size of the macro stream.  The stream is fixed,
# so the figure is exact run to run; 1% over the baseline is a format
# change, such as redundant bytes returning to the wire.
WIRE_BYTES_TOLERANCE = 1.01
# Share of the macro run's wall time the four stage timers account for
# (driver_share_of_wall).  With final meld's bracket covering its whole
# decision pass, twelve alternating runs on a 2-core host read
# 0.9725-0.9762, and 0.9496-0.9550 with the pass untimed.  The floor
# sits more than 0.02 below the lowest run.
DRIVER_SHARE_FLOOR = 0.95
# The stage waterfall must account for the measured end-to-end p50; the
# chain invariant makes coverage exactly 1.0 up to clock jitter, and the
# acceptance contract allows 5%.
FLIGHT_COVERAGE_SLACK = 0.05


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


def total_minor(gcw: dict) -> float:
    """Minor words/txn summed over every stage's `*_minor` column."""
    return sum(v for k, v in gcw.items() if k.endswith("_minor"))


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
    for col in ("ds_minor", "pm_minor", "gm_minor", "fm_minor"):
        if not gcw.get(col, 0) > 0:
            fail(f"seq: {col} words/txn not sampled: {gcw.get(col)}")
    share = r.get("driver_share_of_wall")
    if share is None:
        fail("seq: row is missing the driver_share_of_wall column")
    if share < DRIVER_SHARE_FLOOR:
        fail(f"seq: stage timers cover only {share:.3f} of wall time "
             f"(floor {DRIVER_SHARE_FLOOR})")
    cur_total = total_minor(gcw)
    wire = r.get("wire_bytes_per_txn")
    if not wire:
        fail("seq: row is missing the wire_bytes_per_txn column")
    msgs = [f"stage timers cover {share:.3f} of wall",
            f"total {cur_total:.1f} minor words/txn"]

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
        base_total = total_minor(b["gc_words_per_txn"])
        if cur_total > base_total * GC_MINOR_TOLERANCE:
            fail(f"seq: total minor words/txn regressed "
                 f"{base_total:.1f} -> {cur_total:.1f} "
                 f"(tolerance x{GC_MINOR_TOLERANCE})")
        msgs[1] += f" (base {base_total:.1f})"
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


CALIBRATION_MODELS = ("ds", "pm", "gm", "fm", "exec", "read")
CALIBRATION_FIELDS = ("per_run", "per_a", "per_b", "held_out", "held_out_50k")


def check_smoke(report_path: str) -> None:
    with open(report_path) as f:
        report = json.load(f)
    cal = report.get("calibration")
    if not isinstance(cal, dict):
        fail(f"{report_path}: no top-level calibration object")
    for m in CALIBRATION_MODELS:
        model = cal.get(m)
        if not isinstance(model, dict):
            fail(f"calibration: no {m} model")
        missing = [k for k in CALIBRATION_FIELDS
                   if not isinstance(model.get(k), (int, float))]
        if missing:
            fail(f"calibration.{m}: missing {', '.join(missing)}")
        if min(model["per_run"], model["per_a"], model["per_b"]) < 0:
            fail(f"calibration.{m}: negative coefficient {model}")
    print("bench-smoke gate: OK: calibration on " + cal.get("host", "?")
          + "; held-out " + ", ".join(
              f"{m} {100 * cal[m]['held_out']:+.1f}%"
              for m in CALIBRATION_MODELS))


def main() -> None:
    argv = sys.argv[1:]
    if len(argv) >= 2 and argv[0] == "--macro":
        check_macro(argv[1], argv[2] if len(argv) > 2 else None)
    elif len(argv) >= 2 and argv[0] == "--flight":
        check_flight(argv[1])
    elif len(argv) >= 2 and argv[0] == "--smoke":
        check_smoke(argv[1])
    else:
        fail("usage: check_bench_smoke.py --macro RUN.json [BASELINE.json] "
             "| --flight REPORT.json | --smoke BENCH_SMOKE.json")


if __name__ == "__main__":
    main()
