open Hyder_tree

(** The meld pipeline (Figure 2): deserialize → premeld → group meld →
    final meld.

    This is the {e deterministic semantic machine}: it processes intentions
    strictly in log order and produces, for every intention, the same
    commit/abort decision and the same (physically identical) sequence of
    database states on every server.  Every stage runs inline on the
    caller, one intention at a time; the paper runs the stages on
    separate threads (Section 3.4), and the cluster simulator models that
    parallelism from the per-stage timings measured here.  Ephemeral ids
    follow the paper's per-thread scheme, so they match what a threaded
    pipeline would assign.

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

type decided_at = Group_meld.decided_at =
  | At_premeld
  | At_group_meld
  | At_final_meld

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
    or [phantom_conflict]), shared by the cluster's abort breakdown and
    flight records. *)

type t

val create :
  ?config:config ->
  ?runtime:Runtime.backend ->
  ?flight:Hyder_obs.Flight.t ->
  genesis:Tree.t ->
  unit ->
  t
(** The ds stage decodes each wire record straight to the intention's
    tree with {!Hyder_codec.Codec.decode}, bound against the snapshot
    state; premeld, group meld and final meld all walk that one tree, so
    every node an intention allocates is booked in the ds bracket.

    [runtime] exists only because [benchmark/] still passes it (see
    {!Runtime.backend}): [Sequential] and [Pipelined] both run the one
    inline scheduler and spawn nothing; [Parallel] is rejected with
    [Invalid_argument].

    Every stage books its work into {!counters} through one bracket:
    the span's monotonic seconds and minor-heap words go into the
    stage's {!Counters.stage}, on every run.  Final meld's bracket
    covers the whole decision pass (recording each member's state, the
    tallies and building the decisions).

    [flight] (default {!Hyder_obs.Flight.disabled}) records one
    lifecycle record per intention, keyed by log position: per-stage
    queue-wait/service pairs at every edge (decode, premeld trial,
    group-meld combine, final meld) and the decision with abort reason
    and conflict-zone size.  A record opens when its decode starts.

    The flight recorder is provably observational: decisions, ephemeral
    node ids, integer counter values and each stage's minor words are
    identical with it on or off, since its edges are stamped outside the
    stage brackets (see [test/test_obs.ml]).

    With premeld on, [group_size] must not exceed
    [threads * distance + 1]: beyond that, a premeld-bound intention can
    designate an input state its own group assembly has not recorded
    yet.  {!create} and {!restore} raise [Invalid_argument] for such a
    config. *)

val decode : t -> pos:int -> string -> Hyder_codec.Intention.t
(** The ds stage: deserialize an encoded intention, resolving references
    against retained states.  Timed into the ds counters.  An intention
    naming a snapshot position beyond the last recorded state raises
    [Failure "Pipeline.decode: intention at log position …"]
    (the stream is invalid), and a corrupt one raises
    {!Hyder_codec.Codec.Corrupt}; a rejected intention counts nothing.
    {!submit_wire_batch} raises the same [Failure]. *)

val submit : t -> Hyder_codec.Intention.t -> decision list
(** Feed the next intention in log order.  Returns the decisions that
    became final (possibly none while a group is filling, possibly several
    when a group completes), in sequence order.  This is the
    single-intention entry for callers that hold decoded intentions;
    wire batches go through {!submit_wire_batch}. *)

val submit_wire_batch : t -> (int * string) list -> decision list
(** Feed the next intentions in log order in wire form
    ([(log_position, encoded_bytes)]): each one is {!decode}d, then
    {!submit}ted, before the next is decoded.  Decisions are returned in
    sequence order.  An intention naming a snapshot state the log has not
    recorded before it raises [Failure] (the stream is invalid), and a
    corrupt one raises {!Hyder_codec.Codec.Corrupt}; every earlier
    intention has then been melded. *)

(** Frozen: kept only because [benchmark/bench.ml] still reads these
    fields.  {!offload} never returns one. *)
type offload_stats = {
  ds_offloaded : int;
  ds_inline : int;
  worker_ds_seconds : float;
  worker_pm_seconds : float;
  worker_gm_seconds : float;
  max_queue_depth : int;
  queue_capacity : int;
  handoff_batches : int;
  handoff_items : int;
  doorbell_wakeups : int;
  driver_steals : int;
}

val offload : t -> offload_stats option
(** Always [None]; kept for [benchmark/]. *)

val flush : t -> decision list
(** Force a partially filled group through final meld (stream end). *)

val lcs : t -> int * int * Tree.t
(** [(seq, pos, tree)] of the last committed state. *)

val states : t -> State_store.t
val counters : t -> Counters.t
val config : t -> config

val shutdown : t -> unit
(** Does nothing; kept for [benchmark/], which calls it. *)

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
  ?flight:Hyder_obs.Flight.t ->
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
    ([Invalid_argument] otherwise). *)
