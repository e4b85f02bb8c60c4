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
    timings), and the [Pipelined] backend stages the whole
    pre-final-meld pipeline (deserialize, premeld, group meld) across
    worker domains fed through bounded SPSC queues, leaving only final
    meld on the driver — and, per the paper's Section 3.4 id scheme,
    both backends must produce bit-identical results.

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

val reason_slug : Meld.abort_reason -> string
(** Machine label of an abort reason ([write_conflict], [read_conflict]
    or [phantom_conflict]), shared by abort counters and flight records. *)

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

    [runtime] defaults to {!Runtime.sequential}.  A [Pipelined] runtime
    spawns its stage-pool worker domains here; call {!shutdown} when
    done with the pipeline to join them.  [Runtime.Parallel] is rejected
    with [Invalid_argument] (see {!Runtime.backend}).

    [metrics], when given, registers pipeline instruments
    ([pipeline_commits], [pipeline_aborts], the per-reason
    [pipeline_aborts_{write,read,phantom}_conflict] breakdown,
    [pipeline_conflict_zone_intentions], [pipeline_fm_nodes_per_txn] and
    the per-stage GC words).  Handoff accounting lives only in
    {!offload}.

    [flight] (default {!Hyder_obs.Flight.disabled}) records one
    lifecycle record per intention, keyed by log position: per-stage
    queue-wait/service pairs at every edge (decode, premeld trial,
    group-meld combine, final meld) and the decision with abort reason
    and conflict-zone size.  The recorder is driver-only; under
    [Pipelined] the worker-side stage brackets travel back in the
    runtime's result messages and are stamped on the driver, so the
    wait column measures real queue residency.

    Metrics and flight are independent and both provably observational:
    decisions, ephemeral node ids and integer counter values are
    bit-identical with either on or off (see [test/test_obs.ml]).

    With premeld on, [group_size] must not exceed
    [threads * distance + 1]: beyond that, a premeld-bound intention can
    designate an input state its own group assembly has not recorded
    yet.  {!create} and {!restore} raise [Invalid_argument] for such a
    config on every backend. *)

val decode : t -> pos:int -> string -> Hyder_codec.Intention.t
(** The ds stage: deserialize an encoded intention, resolving references
    against retained states.  Timed into the ds counters; a rejected
    intention raises {!Hyder_codec.Codec.Corrupt} and counts nothing. *)

val submit : t -> Hyder_codec.Intention.t -> decision list
(** Feed the next intention in log order.  Returns the decisions that
    became final (possibly none while a group is filling, possibly several
    when a group completes), in sequence order.  Always runs the inline
    sequential scheduler, whatever the runtime backend: this is the
    single-intention entry for callers that hold decoded intentions.
    Batches go through {!submit_wire_batch}. *)

val submit_wire_batch : t -> (int * string) list -> decision list
(** Feed the next intentions in log order in wire form
    ([(log_position, encoded_bytes)]), letting the backend overlap
    deserialization with melding.  Under [Sequential] each intention is
    melded right after its decode: exactly {!decode} then {!submit}.
    Under [Pipelined] each intention's next stage is released as soon
    as its own inputs are recorded in the live store, and the job
    carries them: its decode once its snapshot state is recorded, its
    premeld trial (in its paper thread's seq order) once its designated
    input state is, group meld and final meld in log order.  Decodes run
    on worker domains straight from the wire buffers; the driver decodes
    only what it steals from its backlog instead of parking, and what it
    redoes after a worker's decode failed.
    Decisions are returned in sequence order and are bit-identical on
    both backends.  A stream whose snapshot references can never be
    satisfied raises the same [Failure] on both backends, and a corrupt
    intention the same {!Hyder_codec.Codec.Corrupt}, raised once every
    earlier intention has decoded. *)

(** Offload accounting for the [Pipelined] backend: how much stage work
    left the driver's critical path, and how deep the bounded queues
    ran.  Worker seconds are summed across worker domains; subtracting
    them from the corresponding {!Counters} stage totals gives the
    driver-executed (critical-path) share. *)
type offload_stats = {
  ds_offloaded : int;  (** decodes executed on worker domains *)
  ds_inline : int;
      (** decodes the driver ran itself: steals, redos of a failed worker
          decode, and snapshots the store no longer retains *)
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
      (** backlogged decodes the driver ran instead of parking *)
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
(** Join the [Pipelined] stage-pool workers, if any.  Idempotent.
    Afterwards the pipeline remains usable for {!submit} and {!decode};
    under [Pipelined], {!submit_wire_batch} raises [Invalid_argument]
    once it reaches the joined workers. *)

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
