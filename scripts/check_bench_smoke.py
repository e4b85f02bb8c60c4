#!/usr/bin/env python3
"""Regression gates over the benchmark harness's JSON reports.

With --macro, gates a `macro` run (see `make bench-macro`):

  1. every backend reproduced the sequential run bit-for-bit
     (same_as_seq is true for all rows) with sane throughput, and the
     pm, gm, fm and mz minor words per intention, which the driver
     allocates on every backend, are the same on every row;
  2. the pipelined backend moved real work off the driver: its
     driver-executed stage time per intention (driver_critical_path_us)
     is strictly lower than the sequential backend's, on every core
     count, and a non-zero share of decodes ran on worker domains;
  3. queue accounting is sane: every measured decode accounted for
     (ds_offloaded + ds_inline = intentions_measured), peak queue depth
     within the configured capacity, publications carrying >= 1 item on
     average, doorbell wakeups not exceeding publications plus items;
  4. every decode the driver ran itself was a steal (ds_inline equals
     driver_steals): none waited on the driver for its snapshot state;
  5. allocation budgets: the driver's ds minor words per decoded node,
     and the driver-domain bracket (driver_minor_w_per_txn minus the
     driver-booked stage minors) — batched handoff itself must not
     allocate;
  6. when a committed baseline is given, no regression of the fm
     critical path.  The GC words/txn comparison is tight (the fm loop's
     minor allocation is deterministic, measured with the exact
     Gc.minor_words counter); the fm-ns/txn comparison is loose, because
     wall time on a shared CI box is not;
  7. on a machine with >= 2 cores, the pipelined backend's melds/s
     strictly exceeds the sequential backend's.  This wall-clock gate
     runs last, so its failure message lists every check that passed.

The driver-critical-path metric is deliberately wall-clock-free: it sums
the stage seconds the driver itself executed, so it holds even on a
loaded single-core CI box where true overlap cannot show up in elapsed
time.

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
# Driver-side ds allocation budget, in minor words per decoded node
# (ds_minor over ds_nodes_per_txn).  The flyweight-view ds path builds
# only its per-node index arrays, about 8.4 words per node; node
# allocation lands in the mz column as meld materializes, and building
# heap nodes in ds again would add at least 14 words per node.  Under
# pipe:<n> ds_minor covers only the driver-inline decodes while the node
# count covers every decode, so that row reads low.
DS_MINOR_PER_NODE_BUDGET = 10.0
# Handoff-allocation budget, in driver minor words per measured txn not
# already booked by a stage instrument (fm/ds/pm/gm/mz).  The carrier
# pool plus batched rings make the steady-state handoff itself
# allocation-free; the residual covers the per-batch scheduling state
# and per-item option/closure churn in submit_wire_batch's release loop.
# Generous on purpose — the signal is "handoff stopped being ~free", not
# noise.
HANDOFF_RESIDUAL_BUDGET = 400.0


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

    # Premeld, group meld, final meld and the materialization they cause
    # run on the driver through the same code on every backend, so their
    # minor allocation per intention is backend-invariant (same melds,
    # same nodes); a spread here means the measurement or the
    # determinism contract broke, or a stage left the driver.  The mz
    # hook keeps materialization out of the stage columns.
    for col in ("pm_minor", "gm_minor", "fm_minor", "mz_minor"):
        per_row = {n: r["gc_words_per_txn"][col] for n, r in rows.items()}
        lo, hi = min(per_row.values()), max(per_row.values())
        if lo <= 0 or hi > lo * 1.01:
            fail(f"{col} words/txn not backend-invariant: {per_row}")

    for name, r in sorted(rows.items()):
        ds = r["gc_words_per_txn"].get("ds_minor")
        if ds is None:
            fail(f"{name}: row is missing the ds_minor column")
        nodes = r.get("ds_nodes_per_txn")
        if not nodes:
            fail(f"{name}: row is missing the ds_nodes_per_txn column")
        if not ds / nodes < DS_MINOR_PER_NODE_BUDGET:
            fail(f"{name}: ds minor words/node {ds / nodes:.2f} "
                 f"({ds:.1f} w/txn over {nodes:.1f} nodes/txn) not under "
                 f"the budget of {DS_MINOR_PER_NODE_BUDGET:.0f}")

    msgs = []

    # ---- the pipelined row: offload, queue and handoff accounting ----
    seq = rows["seq"]
    pipe = next((r for n, r in sorted(rows.items())
                 if n.startswith("pipe")), None)
    if pipe is None:
        fail("no pipe:<n> macro row")
    pipe_us = pipe["driver_critical_path_us"]
    seq_us = seq["driver_critical_path_us"]
    if not pipe_us < seq_us:
        fail(f"pipe driver critical path {pipe_us:.2f} us/txn is not "
             f"below seq {seq_us:.2f}")
    msgs.append(f"driver critical path {seq_us:.2f} -> {pipe_us:.2f} us/txn")

    off = pipe.get("offload")
    h = pipe.get("handoff")
    if not off or not h:
        fail("pipelined macro row carries no offload/handoff stats")
    n = pipe["intentions_measured"]
    if off["ds_offloaded"] <= 0:
        fail("no decodes ran on worker domains")
    if off["ds_offloaded"] + off["ds_inline"] != n:
        fail(f"decode accounting off: {off['ds_offloaded']} offloaded "
             f"+ {off['ds_inline']} inline != {n}")
    # On a valid stream the driver decodes only what it steals: a decode
    # that ran inline for any other reason is a decode that waited on
    # the driver for its snapshot state.
    if off["ds_inline"] != h["driver_steals"]:
        fail(f"{off['ds_inline']} driver decodes but "
             f"{h['driver_steals']} steals: some decode ran inline "
             f"for snapshot lag")
    if not 0 < off["max_queue_depth"] <= off["queue_capacity"]:
        fail(f"queue depth {off['max_queue_depth']} outside "
             f"(0, {off['queue_capacity']}]")
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
    msgs.append(f"{off['ds_offloaded']}/{n} decodes on workers, "
                f"{off['ds_inline']} steals, peak queue depth "
                f"{off['max_queue_depth']}/{off['queue_capacity']}, "
                f"handoff {h['items'] / h['batches']:.1f} items/publication, "
                f"{h['doorbell_wakeups']} doorbells, "
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

    # ---- pipe-beats-seq in wall clock, where cores allow overlap ----
    cores = pipe.get("cores", 1)
    if cores >= 2:
        if not pipe["melds_per_s"] > seq["melds_per_s"]:
            fail(f"pipe melds/s {pipe['melds_per_s']:.0f} does not beat "
                 f"seq {seq['melds_per_s']:.0f} on a {cores}-core machine "
                 f"(passed: {'; '.join(msgs)})")
        msgs.append(f"pipe beats seq "
                    f"{pipe['melds_per_s'] / seq['melds_per_s']:.2f}x "
                    f"melds/s ({cores} cores)")
    else:
        msgs.append(f"1-core box: melds/s {pipe['melds_per_s']:.0f} vs "
                    f"{seq['melds_per_s']:.0f}, not gated")

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
    if len(argv) >= 2 and argv[0] == "--macro":
        check_macro(argv[1], argv[2] if len(argv) > 2 else None)
    elif len(argv) >= 2 and argv[0] == "--flight":
        check_flight(argv[1])
    else:
        fail("usage: check_bench_smoke.py --macro RUN.json [BASELINE.json] "
             "| --flight REPORT.json")


if __name__ == "__main__":
    main()
