.PHONY: all build test check bench-smoke bench-macro bench-macro-baseline bench clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 gate: everything compiles and the full test suite passes.
check:
	dune build && dune runtest

# Smoke of the cluster simulation: fig11 (nodes visited by final meld
# per optimization) contributes four cluster runs so BENCH_SMOKE.json
# carries real perf data (write_tps, stage_us, conflict-zone stats) for
# the trajectory.
bench-smoke:
	dune exec bench/main.exe -- --json=BENCH_SMOKE.json --quick fig11

# Tracked macro-benchmark: replays one fixed-seed, mixed read/write wire
# stream, measuring the final-meld critical path (fm_ns_per_txn), exact
# per-stage GC words/txn and the stream's mean encoded size
# (wire_bytes_per_txn).  The fresh run is gated against the committed
# BENCH_MACRO.json baseline: ds allocating more than its per-node budget,
# the fm loop allocating more minor words/txn (tight tolerance — the
# number is deterministic), a large fm-ns/txn regression (loose
# tolerance — wall clock on shared CI) or the wire format growing by
# more than 1% fails the make.
# A second, flight-recorded run (kept out of the gated timing run so the
# recorder cannot touch the tracked melds/s) then feeds the analyzer,
# whose per-stage wait/service waterfall (FLIGHT_REPORT.json) is itself
# gated: no negative waits, stage sums bounded by end-to-end time, and
# the p50 stage-sum covering the p50 end-to-end latency within 5%.
bench-macro:
	dune exec bench/main.exe -- --json=BENCH_MACRO.run.json macro
	python3 scripts/check_bench_smoke.py --macro BENCH_MACRO.run.json BENCH_MACRO.json
	dune exec bench/main.exe -- --flight=FLIGHT.jsonl macro
	dune exec bin/hyder_cli.exe -- analyze FLIGHT.jsonl --json FLIGHT_REPORT.json
	python3 scripts/check_bench_smoke.py --flight FLIGHT_REPORT.json

# Refresh the committed baseline (run on a quiet machine, then commit).
bench-macro-baseline:
	dune exec bench/main.exe -- --json=BENCH_MACRO.json macro
	python3 scripts/check_bench_smoke.py --macro BENCH_MACRO.json

bench:
	dune exec bench/main.exe

clean:
	dune clean
