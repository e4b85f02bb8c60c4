open Hyder_tree

(** The meld pipeline (Figure 2): deserialize → premeld → group meld →
    final meld.

    This is the {e deterministic semantic machine}: it processes intentions
    strictly in log order and produces, for every intention, the same
    commit/abort decision and the same (physically identical) sequence of
    database states on every server, whatever the physical thread
    interleaving.  How stages are scheduled onto hardware is delegated to
    {!Runtime}: the [Sequential] backend runs everything inline (the
    cluster simulator models physical parallelism from its per-stage
    timings), the [Parallel] backend runs premeld trial melds on real
    domains via {!submit_batch}, and the [Pipelined] backend stages the
    whole pre-final-meld pipeline (deserialize, premeld, group meld)
    across worker domains fed through bounded SPSC queues, leaving only
    final meld on the driver — and, per the paper's Section 3.4 id
    scheme, every backend must produce bit-identical results.

    Stage thread ids for ephemeral VNs: final meld = 0, premeld threads =
    1..t, group meld = t+1. *)

type config = {
  premeld : Premeld.config option;  (** [None] = premeld off *)
  group_size : int;  (** 1 = group meld off; the paper uses 2 *)
}

val plain : config
(** No optimizations: the original meld of [8]. *)

val with_premeld : config
val with_group_meld : config
val with_both : config

type decided_at = At_premeld | At_group_meld | At_final_meld

type decision = {
  seq : int;  (** dense intention sequence number *)
  pos : int;  (** log position *)
  server : int;
  txn_seq : int;
  committed : bool;
  reason : Meld.abort_reason option;
  decided_at : decided_at;
}

type t

val create :
  ?config:config ->
  ?runtime:Runtime.backend ->
  ?flight:Hyder_obs.Flight.t ->
  ?metrics:Hyder_obs.Metrics.t ->
  genesis:Tree.t ->
  unit ->
  t
(** The ds stage indexes wire records in place as flyweight
    {!Hyder_codec.View} values instead of eagerly building heap trees;
    meld walks the view and materializes only the nodes it grafts, and
    the allocation it does spend is booked under the
    [pipeline_mz_gc_minor_words] instrument rather than the ds bracket.
    Every backend runs this one decode
    ({!Hyder_codec.Codec.decode_lazy}, bound against the snapshot state),
    on the driver and on pipelined workers alike, and views cross the
    stage queues under one ownership rule: whoever pushes an intention
    onto a queue never touches it or its view again.  Decisions, trees,
    ephemeral ids and integer counters are bit-identical to eager
    decoding everywhere.

    [runtime] defaults to {!Runtime.sequential}.  A [Parallel] runtime
    spawns its domain pool here, a [Pipelined] runtime its stage-pool
    worker domains; call {!shutdown} when done with the pipeline to join
    them.

    [metrics], when given, registers pipeline instruments
    ([pipeline_commits], [pipeline_aborts], the per-reason
    [pipeline_aborts_{write,read,phantom}_conflict] breakdown,
    [pipeline_conflict_zone_intentions], [pipeline_fm_nodes_per_txn]) and
    is forwarded to {!Runtime.create}.

    [flight] (default {!Hyder_obs.Flight.disabled}) records one
    lifecycle record per intention, keyed by log position: per-stage
    queue-wait/service pairs at every edge (decode, premeld trial,
    group-meld combine, final meld) and the decision with abort reason
    and conflict-zone size.  The recorder is driver-only; under
    [Parallel]/[Pipelined] the worker-side stage brackets travel back in
    the runtime's result messages and are stamped on the driver, so the
    wait column measures real queue residency.

    Metrics and flight are independent and both provably observational:
    decisions, ephemeral node ids and integer counter values are
    bit-identical with either on or off (see [test/test_obs.ml]).

    Retention arithmetic constraint: with premeld on, [group_size] must
    not exceed [threads * distance + 1] — beyond that, a premeld-bound
    intention can designate an input state its own group assembly has not
    recorded yet, under either backend. *)

val decode : t -> pos:int -> string -> Hyder_codec.Intention.t
(** The ds stage: deserialize an encoded intention, resolving references
    against retained states.  Timed into the ds counters; a rejected
    intention raises {!Hyder_codec.Codec.Corrupt} and counts nothing. *)

val submit : t -> Hyder_codec.Intention.t -> decision list
(** Feed the next intention in log order.  Returns the decisions that
    became final (possibly none while a group is filling, possibly several
    when a group completes), in sequence order.  Always runs the inline
    sequential scheduler, whatever the runtime backend. *)

val submit_batch : t -> Hyder_codec.Intention.t list -> decision list
(** Feed the next intentions in log order, allowing the runtime backend
    to overlap premeld work across them.  Under [Sequential] this is
    exactly [List.concat_map (submit t)].  Under [Parallel] the batch is
    cut into premeld windows of at most [threads * distance + 1 -
    pending_group_members] intentions — the bound that guarantees every
    member's designated input state is already recorded when the window's
    store snapshot is taken — each window's trial melds run
    concurrently on the domain pool (one task per paper premeld thread,
    owning that thread's allocator and counter shard), and the group/final
    meld tail then drains sequentially in log order.  Under [Pipelined]
    the same windows run through the staged ds/pm/gm worker fabric with
    only final meld on the caller.  Decisions are returned in sequence
    order and are bit-identical to the sequential backend's. *)

val submit_wire_batch : t -> (int * string) list -> decision list
(** Feed the next intentions in log order in wire form
    ([(log_position, encoded_bytes)]), letting the backend overlap
    deserialization with melding.  Under [Sequential] each intention is
    melded right after its decode.  Under [Parallel] this decodes
    maximal safe prefixes (every snapshot reference resolvable against
    already-recorded states) and melds each chunk before decoding the
    next.  Under [Pipelined], decodes whose snapshot state is already
    recorded at window start run on worker domains straight from the
    wire buffers; the rest decode on the driver as soon as final meld
    records their snapshot state.  Decisions are identical to decoding
    everything up front and calling {!submit_batch}.  A stream whose
    snapshot references can never be satisfied raises the same
    [Failure] on every backend, and a corrupt intention the same
    {!Hyder_codec.Codec.Corrupt}, raised once every earlier intention
    has decoded. *)

(** Offload accounting for the [Pipelined] backend: how much stage work
    left the driver's critical path, and how deep the bounded queues
    ran.  Worker seconds are summed across worker domains; subtracting
    them from the corresponding {!Counters} stage totals gives the
    driver-executed (critical-path) share. *)
type offload_stats = {
  ds_offloaded : int;  (** decodes executed on worker domains *)
  ds_inline : int;  (** decodes the driver ran inline (snapshot lag) *)
  worker_ds_seconds : float;
  worker_pm_seconds : float;
  worker_gm_seconds : float;
  max_queue_depth : int;
      (** peak jobs-in-flight to any single worker (never exceeds
          [queue_capacity] by construction) *)
  queue_capacity : int;
  handoff_batches : int;
      (** job-ring publications — each one tail publication and at most
          one doorbell, however many jobs it carried *)
  handoff_items : int;  (** jobs published through those batches *)
  doorbell_wakeups : int;
      (** condvar round-trips the handoff actually paid for (worker and
          driver parks that were woken) *)
  driver_steals : int;
      (** backlogged ds/pm items the driver inlined instead of parking *)
}

val offload : t -> offload_stats option
(** [None] unless the runtime backend is [Pipelined]. *)

val flush : t -> decision list
(** Force a partially filled group through final meld (stream end). *)

val lcs : t -> int * int * Tree.t
(** [(seq, pos, tree)] of the last committed state. *)

val states : t -> State_store.t
val counters : t -> Counters.t
val config : t -> config

val runtime : t -> Runtime.backend

val shutdown : t -> unit
(** Join the [Parallel] domain pool or the [Pipelined] stage-pool
    workers, if any.  Idempotent.  Afterwards the pipeline remains usable
    for {!submit} and {!decode}; under [Parallel] or [Pipelined],
    {!submit_batch} and {!submit_wire_batch} raise [Invalid_argument]
    once they reach the joined workers. *)

val prune : t -> keep:int -> unit
(** Drop old retained states, but never below what premeld arithmetic
    needs. *)

(** {1 Checkpoint / restore (crash recovery)} *)

val checkpoint : t -> Checkpoint.t option
(** Freeze a recovery checkpoint: the retained state window, ephemeral-id
    allocator cursors and a deep counter copy — everything a restarted
    pipeline needs to resume bit-identically at [seq + 1].  [None] while a
    meld group is partially assembled (checkpoints are only meaningful at
    group boundaries); retry after the next decision-producing submit. *)

val restore :
  ?config:config ->
  ?runtime:Runtime.backend ->
  ?flight:Hyder_obs.Flight.t ->
  ?metrics:Hyder_obs.Metrics.t ->
  Checkpoint.t ->
  t
(** Build a fresh pipeline from a checkpoint, as a crashed server does on
    restart: the state store is rebuilt from the checkpointed window, the
    allocator cursors resume where they stopped, counters continue from
    their checkpointed values, and the next submitted intention receives
    sequence number [checkpoint.seq + 1].  Replaying the log suffix
    [(checkpoint.pos, tail]] then reproduces exactly the decisions, trees,
    ephemeral ids and (non-timing) counters a never-crashed server has.
    [config] must match the capturing pipeline's premeld shape
    ([Invalid_argument] otherwise); the runtime backend is free — recovery
    composes with any scheduler. *)
