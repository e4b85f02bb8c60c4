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

    Premeld runs inline in the pipeline, against the live state store,
    which already holds the designated input state when the intention is
    submitted (final meld is always ahead of it). *)

type config = { threads : int; distance : int }

val default_config : config
(** 5 threads, distance 10 — the best setting found in Section 6.4.6. *)

val thread_for : config -> seq:int -> int
(** Pipeline thread id (1-based; 0 is final meld's). *)

val input_seq : config -> seq:int -> int
(** Sequence number of the state to premeld intention [seq] against. *)

val run :
  config ->
  allocs:Hyder_tree.Vn.Alloc.t array ->
  counters:Counters.stage ->
  states:State_store.t ->
  seq:int ->
  Hyder_codec.Intention.t ->
  Group_meld.member
(** Premeld intention [seq] into its {!Group_meld.member}: unchanged when
    its designated input state precedes its snapshot, otherwise a trial
    meld against that state, which either substitutes the merged
    intention (with [premeld_input] set) or stamps the member aborted
    [At_premeld].  [allocs.(i)] is premeld thread [i+1]'s ephemeral-id
    allocator; the call uses thread [thread_for ~seq]'s, and counts its
    work into [counters]. *)
