(** Premeld (Section 3, Algorithm 1).

    A trial meld of an intention against a committed state {e earlier} than
    its final input LCS.  If it finds a conflict the intention is dead and
    final meld skips it; otherwise its output — re-interpreted as an
    intention with refreshed metadata — substitutes for the original, and
    final meld only revalidates the short post-premeld conflict zone.

    Determinism (Section 3.4): with [threads = t] and [distance = d],
    intention number [v] is premelded by thread [v mod t] against the state
    produced by intention [v - t*d - 1].  Every server runs the same
    arithmetic, so every server premelds every intention against the same
    state with the same ephemeral-id stream.

    The module is split into a {e pure trial-meld core} ({!trial}) that only
    reads immutable data and writes caller-owned records — safe to run on
    any domain — and a {e scheduling shell} ({!run}) that resolves the
    designated input state against the live state store for the inline
    sequential path.  The pipelined runtime calls {!trial} directly on a
    worker, with the input state and [snap_seq] the driver read from the
    live store once that state was recorded. *)

type config = { threads : int; distance : int }

val default_config : config
(** 5 threads, distance 10 — the best setting found in Section 6.4.6. *)

val thread_for : config -> seq:int -> int
(** Pipeline thread id (1-based; 0 is final meld's). *)

val input_seq : config -> seq:int -> int
(** Sequence number of the state to premeld intention [seq] against. *)

type outcome =
  | Unchanged of Hyder_codec.Intention.t
      (** the designated state precedes the snapshot: nothing to do *)
  | Premelded of Hyder_codec.Intention.t * int
      (** substitute intention and the input state's sequence number *)
  | Dead of Meld.abort_reason  (** conflict found early *)

val trial :
  ?mz:(float -> unit) ->
  config ->
  snap_seq:int ->
  lookup:(int -> Hyder_tree.Tree.t option) ->
  alloc:Hyder_tree.Vn.Alloc.t ->
  counters:Counters.stage ->
  seq:int ->
  Hyder_codec.Intention.t ->
  outcome
(** The pure core.  [snap_seq] is the sequence number of the intention's
    snapshot state (what {!State_store.seq_of_pos} of its snapshot position
    would report at submit time); [lookup] resolves a state by sequence
    number and must cover the designated input state.  [alloc] and
    [counters] belong exclusively to the premeld thread [thread_for ~seq],
    making the call free of shared mutable state.

    [mz] is forwarded to {!Meld.meld}: it observes the minor words spent
    materializing flyweight view nodes when the intention carries a lazy
    view.  Only pass it from a caller whose accumulator is single-writer
    (the inline sequential path). *)

val run :
  ?mz:(float -> unit) ->
  config ->
  allocs:Hyder_tree.Vn.Alloc.t array ->
  shards:Counters.stage array ->
  states:State_store.t ->
  seq:int ->
  Hyder_codec.Intention.t ->
  outcome
(** The inline scheduling shell: picks the thread's allocator and counter
    shard ([allocs.(i)] and [shards.(i)] belong to premeld thread [i+1])
    and resolves states against the live store, which must already hold
    the designated input state (final meld is always ahead of it). *)
