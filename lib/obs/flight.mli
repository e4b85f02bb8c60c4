(** Per-transaction flight recorder: end-to-end latency attribution.

    Aggregate instruments ({!Metrics}) say how much time each pipeline
    stage consumed in total, but not where one intention's wall-clock
    went between submit and commit/abort — queueing or service, and in
    which stage.  The flight recorder does: every intention carries a
    {!record} keyed by its log position (a pure function of the
    deterministic schedule), and each lifecycle edge — decode, premeld
    trial, group-meld combine, final meld, decision — appends a
    wait/service pair to it.  {!Analyze} turns a dump of these records
    into a waterfall report and a Chrome/Perfetto timeline.

    {2 Wait/service decomposition}

    A record chains a cursor [t_last] through its edges.  For an edge
    of stage [s] bracketed by monotonic timestamps [(t0, t1)]:

    - [wait.(s)  += max 0 (t0 - t_last)]  — time between the previous
      edge and this stage starting (a decoded intention waiting for its
      turn, or a group member waiting for its group to fill);
    - [service.(s) += max 0 (t1 - t0)]    — time the stage actually
      worked on the intention;
    - [t_last <- max t_last t1].

    Because the chain is gapless, [Σ (wait + service) = t_last - t_submit]
    {e exactly}, so the analyzer's per-stage waterfall decomposes the
    measured end-to-end latency by construction (group stages — gm
    combine, final meld — attribute the full group operation to every
    member: this is latency attribution, not CPU accounting, so the
    per-stage sums across {e different} records may exceed wall-clock).

    {2 Inertness}

    A disabled recorder makes every entry point a single branch, call
    sites gate their own clock reads on {!enabled}, and recording never
    feeds back into meld decisions —
    decisions, trees, ephemeral ids and counters are bit-identical with
    the recorder on or off (asserted by [test/test_obs.ml]).

    {2 Threading}

    Single-writer: only the thread calling the pipeline's
    [submit]/[submit_wire_batch] may touch a recorder. *)

type stage = Ds | Pm | Gm | Fm

val stage_names : string array
(** ["ds"], ["pm"], ["gm"], ["fm"]: every stage's name in pipeline order,
    the index order of {!record.wait} and {!record.service}.  Do not
    mutate. *)

(** One intention's flight record.  Fields are exposed read-only in
    spirit (tests and exporters inspect them); mutate only through the
    recorder API. *)
type record = {
  pos : int;  (** log position — the record key *)
  mutable seq : int;  (** dense sequence number, [-1] until decided *)
  mutable server : int;
  mutable txn_seq : int;
  mutable t_submit : float;  (** first time the recorder saw this pos *)
  mutable t_last : float;  (** wait/service chain cursor *)
  mutable t_done : float;  (** decision time, [nan] while in flight *)
  wait : float array;  (** per-{!stage} queue-wait seconds (length 4) *)
  service : float array;  (** per-{!stage} service seconds (length 4) *)
  mutable committed : bool;
  mutable abort_reason : string;  (** [""] = committed / undecided *)
  mutable decided_at : string;
      (** ["premeld"] / ["group_meld"] / ["final_meld"] *)
  mutable conflict_zone : int;
  mutable sim_submit : float;
      (** cluster-simulation clock edges; [-1.0] = unset *)
  mutable sim_append : float;
  mutable sim_deliver : float;
}

type t

val disabled : t
(** The no-op recorder: {!enabled} is [false], every call one branch. *)

val create :
  ?label:string -> ?metrics:Metrics.t -> ?sink:out_channel -> unit -> t
(** [label] names the run (["seq"], a replica id, ...) and is
    carried on every emitted record so one sink can multiplex several
    recorders.  [metrics] registers per-stage wait/service histograms
    ([flight_<stage>_wait_us] / [flight_<stage>_service_us]), the
    end-to-end histogram [flight_e2e_us], the [flight_records_total]
    counter and — refreshed by {!export_percentiles} — the
    [flight_e2e_p{50,95,99}_us] gauges (microseconds: the registry's
    log2 buckets floor at [2^-16], too coarse for sub-15µs stage times
    in seconds).  [sink], when given, receives one JSON line per
    completed record. *)

val enabled : t -> bool
val label : t -> string

val touch : t -> pos:int -> now:float -> unit
(** Open the record for [pos] if absent, stamping [t_submit = now].
    Idempotent: a second touch (the decode after a caller already opened
    the record) is a no-op. *)

val note_identity : t -> pos:int -> server:int -> txn_seq:int -> unit
(** Attach origin metadata when the decoded intention is first seen. *)

val edge : t -> pos:int -> stage:stage -> t0:float -> t1:float -> unit
(** Append a wait/service pair (see the decomposition above).  Opens the
    record if absent ([t_submit = t0]). *)

val sim_edge : t -> pos:int -> at:[ `Submit | `Append | `Deliver ] -> float -> unit
(** Stamp a cluster-simulation clock edge on an open record (no-op on an
    unknown [pos]): transaction creation, CORFU append, broadcast
    delivery.  [`Deliver] is first-wins — the earliest delivery stamped
    sticks, so re-deliveries to other servers never overwrite it. *)

val complete :
  t ->
  pos:int ->
  now:float ->
  seq:int ->
  committed:bool ->
  reason:string ->
  decided_at:string ->
  conflict_zone:int ->
  unit
(** Close the record: stamp the decision, feed the metrics instruments,
    stream the JSON line to the sink, and drop the record from the
    in-flight table.  No-op on an unknown [pos] (e.g. the recorder was
    enabled mid-run). *)

val in_flight : t -> int
(** Records opened but not yet completed. *)

val completed : t -> int
(** Records completed since creation. *)

val export_percentiles : t -> unit
(** Refresh the [flight_e2e_p{50,95,99}_us] gauges from the exact
    end-to-end sample (call once at end of run; no-op without
    [metrics] or before the first completion). *)
