(** Offline analyzer for flight-record dumps.

    Reads the JSON-lines sink written by {!Flight} and answers the
    questions the aggregate counters cannot: where a transaction's
    end-to-end wall-clock goes (per-stage queue-wait vs. service), which
    stage bounds the run (critical-path decomposition), how abort
    reasons distribute across deciding stages, and which individual
    transactions were slowest.  Records carry their recorder's label
    (["seq"], ["chaos/r0"], ...), so a single dump from several
    recorders is grouped into one analysis section per label. *)

(** One parsed flight record.  [wait]/[service] are indexed by
    {!Flight.stage} order (ds, pm, gm, fm); times in seconds. *)
type txn = {
  pos : int;
  seq : int;
  server : int;
  txn_seq : int;
  label : string;
  committed : bool;
  abort_reason : string option;
  decided_at : string;
  conflict_zone : int;
  t_submit : float;
  t_done : float;
  e2e : float;
  wait : float array;
  service : float array;
}

val txn_of_json : Json.t -> txn option
(** [None] when the document is not a flight record (missing fields). *)

val load_file : string -> txn list
(** Parse a JSON-lines file, skipping blank and malformed lines. *)

val report : ?top_k:int -> txn list -> Json.t
(** The machine-readable report ([top_k] slowest transactions per
    label, default 10).  Per label: transaction/commit/abort
    counts, end-to-end percentiles, the per-stage wait/service waterfall
    with each stage's share of total attributed time, the critical-path
    stage (largest total service share), the abort-reason ×
    deciding-stage matrix, the [top_k] drill-down, and two gate fields —
    [coverage_p50] (p50 of per-record stage sums over p50 end-to-end;
    1.0 up to clock jitter by the {!Flight} chain invariant) and
    [negative_waits] (count of negative wait entries; 0 by
    construction).  All durations in microseconds. *)

val to_chrome : txn list -> Json.t
(** Chrome trace-event JSON (load in Perfetto or [chrome://tracing]).
    One process per record label (named by a [process_name] metadata
    event, labels in first-appearance order), and per record one
    nestable async track ([ph] ["b"]/["e"], [id = pos]): starting at
    [t_submit], each stage in the order ds, pm, gm, fm lays out
    ["<stage>.wait"] then ["<stage>"], skipping zero-length pieces, so
    the pieces tile [[t_submit, t_submit + Σ (wait + service)]].  [ts]
    is in microseconds from the earliest [t_submit] in [txns].  This is
    the layout of the benchmark's Chrome traces. *)

val print_report : ?top_k:int -> txn list -> unit
(** Human-readable rendering to stdout: one waterfall table, critical
    path line, abort matrix and slowest-transaction table per label. *)
