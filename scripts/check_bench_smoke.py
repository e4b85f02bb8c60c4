#!/usr/bin/env python3
"""Regression gate over BENCH_SMOKE.json.

Checks the pipeline-overlap figure's records:

  1. every backend reproduced the sequential run bit-for-bit
     (same_as_seq is true for all rows);
  2. the pipelined backend moved real work off the driver: its
     driver-executed stage time per intention (driver_critical_path) is
     strictly lower than the sequential backend's, and a non-zero share
     of decodes ran on worker domains;
  3. queue accounting is sane: every decode accounted for, peak queue
     depth within the configured capacity.

The driver-critical-path metric is deliberately wall-clock-free: it sums
the stage seconds the driver itself executed, so the gate holds even on
a loaded single-core CI box where true overlap cannot show up in elapsed
time.

With --macro, gates a BENCH_MACRO.json run instead (see `make
bench-macro`): every backend bit-identical to sequential, sane
throughput, and — when a committed baseline is given via --baseline —
no regression of the fm critical path.  The GC words/txn comparison is
tight (the fm loop's minor allocation is deterministic, measured with
the exact Gc.minor_words counter); the fm-ns/txn comparison is loose,
because wall time on a shared CI box is not.

The pipe-beats-seq gate is core-count-aware: on a machine with >= 2
cores the pipelined backend's melds/s must strictly exceed the
sequential backend's (that is the whole point of batched handoff); on
a 1-core box real overlap is physically impossible, so the gate falls
back to the wall-clock-free criterion — the pipelined driver's
critical-path stage seconds per intention must be strictly below
sequential's.  The handoff columns are gated for presence and sanity
either way: publications carry >= 1 item on average, doorbell wakeups
do not exceed items, and the driver-domain allocation bracket
(driver_minor_w_per_txn minus the driver-booked stage minors) stays
under a generous per-txn budget — batched handoff itself must not
allocate.

With --flight, sanity-checks a flight-analysis report (the JSON written
by `hyder-cli analyze --json`) instead: for every backend, records were
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
# Wall-clock metric on shared CI hardware.  The sequential row is the
# stable one; under pipe the driver's fm contends with worker
# domains for cores, so those rows get a much looser bound.
FM_NS_TOLERANCE_SEQ = 1.75
FM_NS_TOLERANCE_MULTI = 3.0
# The stage waterfall must account for the measured end-to-end p50; the
# chain invariant makes coverage exactly 1.0 up to clock jitter, and the
# acceptance contract allows 5%.
FLIGHT_COVERAGE_SLACK = 0.05
# Driver-side ds allocation budget, in minor words per txn.  The
# flyweight-view ds path builds only index arrays; node allocation lands
# in the mz column as meld materializes.  Under pipe:<n> the column
# covers only the driver-inline decodes.
DS_MINOR_BUDGET = 500.0
# Handoff-allocation budget, in driver minor words per measured txn not
# already booked by a stage instrument (fm/ds/pm/gm/mz).  The carrier
# pool plus batched rings make the steady-state handoff itself
# allocation-free; the residual covers list/closure churn in
# submit_wire_batch's windowing, which predates this gate.  Generous on
# purpose — the signal is "handoff stopped being ~free", not noise.
HANDOFF_RESIDUAL_BUDGET = 400.0


def fail(msg: str) -> None:
    print(f"bench-smoke gate: FAIL: {msg}", file=sys.stderr)
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
    if not rows:
        fail("no macro rows in the report (run `make bench-macro`?)")
    for want in ("seq", "pipe:"):
        if not any(name == want or name.startswith(want) for name in rows):
            fail(f"missing backend {want}* in {sorted(rows)}")

    for name, r in sorted(rows.items()):
        if r["same_as_seq"] is not True:
            fail(f"{name}: results diverged from the sequential backend")
        if not r["melds_per_s"] > 0:
            fail(f"{name}: no melds measured")
        if not r["fm_ns_per_txn"] > 0:
            fail(f"{name}: fm critical path not measured")

    # The fm loop's minor allocation per intention is backend-invariant
    # (same melds, same nodes); a spread here means the measurement or the
    # determinism contract broke.  With group meld on, final meld always
    # receives a combined real tree, and the mz hook keeps
    # materialization out of the fm column.
    fm_minors = {n: r["gc_words_per_txn"]["fm_minor"] for n, r in rows.items()}
    lo, hi = min(fm_minors.values()), max(fm_minors.values())
    if lo <= 0 or hi > lo * 1.01:
        fail(f"fm minor words/txn not backend-invariant: {fm_minors}")

    for name, r in sorted(rows.items()):
        ds = r["gc_words_per_txn"].get("ds_minor")
        if ds is None:
            fail(f"{name}: row is missing the ds_minor column")
        if not ds < DS_MINOR_BUDGET:
            fail(f"{name}: ds minor words/txn {ds:.1f} not under the "
                 f"budget of {DS_MINOR_BUDGET:.0f}")

    msgs = []

    # ---- pipe-beats-seq (core-count-aware) + handoff sanity ----
    seq = rows["seq"]
    pipe = next((r for n, r in sorted(rows.items())
                 if n.startswith("pipe")), None)
    if pipe is None:
        fail("no pipe:<n> macro row")
    cores = pipe.get("cores", 1)
    if cores >= 2:
        if not pipe["melds_per_s"] > seq["melds_per_s"]:
            fail(f"pipe melds/s {pipe['melds_per_s']:.0f} does not beat "
                 f"seq {seq['melds_per_s']:.0f} on a {cores}-core machine")
        msgs.append(f"pipe beats seq "
                    f"{pipe['melds_per_s'] / seq['melds_per_s']:.2f}x "
                    f"melds/s ({cores} cores)")
    else:
        # 1 core: overlap cannot show in wall clock; gate the
        # wall-clock-free criterion instead (stage seconds the driver
        # itself executed).
        pipe_us = pipe["driver_critical_path_us"]
        seq_us = seq["driver_critical_path_us"]
        if not pipe_us < seq_us:
            fail(f"1-core fallback: pipe driver critical path "
                 f"{pipe_us:.2f} us/txn is not below seq {seq_us:.2f}")
        msgs.append(f"1-core box: pipe driver critical path "
                    f"{seq_us:.2f} -> {pipe_us:.2f} us/txn "
                    f"(melds/s {pipe['melds_per_s']:.0f} vs "
                    f"{seq['melds_per_s']:.0f}, not gated)")

    h = pipe.get("handoff")
    if not h:
        fail("pipelined macro row carries no handoff stats")
    if h["batches"] <= 0 or h["items"] < h["batches"]:
        fail(f"handoff accounting off: {h['batches']} publications "
             f"carrying {h['items']} items")
    # Worker parks woken <= job publications; driver parks woken <=
    # result publications (<= items).  Anything beyond that means the
    # doorbell counter double-books.
    if h["doorbell_wakeups"] > h["items"] + h["batches"]:
        fail(f"doorbell wakeups {h['doorbell_wakeups']} exceed "
             f"publications+items {h['batches']}+{h['items']}")
    if "driver_minor_w_per_txn" not in pipe:
        fail("pipelined macro row carries no driver_minor_w_per_txn")
    gcw = pipe["gc_words_per_txn"]
    booked = sum(gcw.get(k, 0.0) for k in
                 ("ds_minor", "pm_minor", "gm_minor", "fm_minor", "mz_minor"))
    residual = pipe["driver_minor_w_per_txn"] - booked
    if residual > HANDOFF_RESIDUAL_BUDGET:
        fail(f"driver handoff allocation {residual:.0f} minor words/txn "
             f"over budget ({HANDOFF_RESIDUAL_BUDGET:.0f}): "
             f"driver {pipe['driver_minor_w_per_txn']:.0f} w/txn, "
             f"stage-booked {booked:.0f}")
    msgs.append(f"handoff {h['items'] / h['batches']:.1f} items/publication, "
                f"{h['doorbell_wakeups']} doorbells, "
                f"{h['driver_steals']} steals, "
                f"residual driver alloc {residual:.0f} w/txn")
    if baseline_path is not None:
        base = load_rows(baseline_path, "macro")
        for name, r in sorted(rows.items()):
            b = base.get(name)
            if b is None:
                continue
            cur_gc = r["gc_words_per_txn"]["fm_minor"]
            base_gc = b["gc_words_per_txn"]["fm_minor"]
            if cur_gc > base_gc * GC_MINOR_TOLERANCE:
                fail(f"{name}: fm minor words/txn regressed "
                     f"{base_gc:.1f} -> {cur_gc:.1f} "
                     f"(tolerance x{GC_MINOR_TOLERANCE})")
            cur_ns = r["fm_ns_per_txn"]
            base_ns = b["fm_ns_per_txn"]
            tol = FM_NS_TOLERANCE_SEQ if name == "seq" else FM_NS_TOLERANCE_MULTI
            if cur_ns > base_ns * tol:
                fail(f"{name}: fm ns/txn regressed "
                     f"{base_ns:.0f} -> {cur_ns:.0f} "
                     f"(tolerance x{tol})")
            msgs.append(f"{name} fm {cur_ns:.0f}ns/txn "
                        f"(base {base_ns:.0f}) {cur_gc:.1f}w/txn "
                        f"(base {base_gc:.1f})")
    else:
        msgs += [f"{n} fm {r['fm_ns_per_txn']:.0f}ns/txn "
                 f"{r['gc_words_per_txn']['fm_minor']:.1f}w/txn"
                 for n, r in sorted(rows.items())]

    print("bench-macro gate: OK: all backends bit-identical to sequential; "
          + "; ".join(msgs))


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
    if argv and argv[0] == "--macro":
        if len(argv) < 2:
            fail("usage: check_bench_smoke.py --macro RUN.json [BASELINE.json]")
        check_macro(argv[1], argv[2] if len(argv) > 2 else None)
        return
    if argv and argv[0] == "--flight":
        if len(argv) < 2:
            fail("usage: check_bench_smoke.py --flight REPORT.json")
        check_flight(argv[1])
        return

    path = argv[0] if argv else "BENCH_SMOKE.json"
    with open(path) as f:
        report = json.load(f)

    rows = {
        r["runtime"]: r
        for r in report.get("runs", [])
        if r.get("figure") == "pipeline-overlap"
    }
    if not rows:
        fail("no pipeline-overlap rows in the report "
             "(was the figure run with --json?)")

    seq = rows.get("seq")
    pipe = next((r for name, r in rows.items() if name.startswith("pipe")), None)
    if seq is None or pipe is None:
        fail(f"need seq and pipe:<n> rows, got {sorted(rows)}")

    for name, r in sorted(rows.items()):
        if r["same_as_seq"] is not True:
            fail(f"{name}: results diverged from the sequential backend")

    seq_us = seq["stage_us"]["driver_critical_path"]
    pipe_us = pipe["stage_us"]["driver_critical_path"]
    if not pipe_us < seq_us:
        fail(f"pipelined driver critical path {pipe_us:.2f} us/intention "
             f"is not below sequential {seq_us:.2f}")

    off = pipe.get("offload")
    if not off:
        fail("pipelined row carries no offload stats")
    n = pipe["intentions"]
    if off["ds_offloaded"] <= 0:
        fail("no decodes ran on worker domains")
    if off["ds_offloaded"] + off["ds_inline"] != n:
        fail(f"decode accounting off: {off['ds_offloaded']} offloaded "
             f"+ {off['ds_inline']} inline != {n}")
    if not 0 < off["max_queue_depth"] <= off["queue_capacity"]:
        fail(f"queue depth {off['max_queue_depth']} outside "
             f"(0, {off['queue_capacity']}]")
    if "handoff_batches" in off:
        if off["handoff_batches"] <= 0:
            fail("no batched job publications recorded")
        if off["handoff_items"] < off["handoff_batches"]:
            fail(f"handoff accounting off: {off['handoff_batches']} "
                 f"publications carrying {off['handoff_items']} items")

    batching = (f", {off['handoff_items'] / off['handoff_batches']:.1f} "
                f"items/publication, {off['doorbell_wakeups']} doorbells"
                if off.get("handoff_batches") else "")
    print(
        f"bench-smoke gate: OK: driver critical path "
        f"{seq_us:.2f} -> {pipe_us:.2f} us/intention "
        f"({100 * (1 - pipe_us / seq_us):.0f}% off the driver), "
        f"{off['ds_offloaded']}/{n} decodes on workers, "
        f"peak queue depth {off['max_queue_depth']}/{off['queue_capacity']}"
        f"{batching}, all backends bit-identical to sequential"
    )


if __name__ == "__main__":
    main()
