open Hyder_tree

(** Single-process Hyder: one executor and the meld pipeline in one
    address space, with no log — the setup of the original meld paper
    [8], and the in-process algorithmic harness tests and single-node
    benchmarks drive.

    Each draft is assigned its log identity directly
    ({!Hyder_codec.Intention.assign}), which is semantically identical to
    serializing, logging and deserializing it.  The wire path — blocks,
    reassembly and decode — is {!Server}'s. *)

type t

val create :
  ?config:Pipeline.config ->
  genesis:Tree.t ->
  unit ->
  t

val txn :
  t ->
  ?isolation:Hyder_codec.Intention.isolation ->
  (Executor.t -> 'a) ->
  'a * Pipeline.decision list
(** Run one transaction against the current LCS and feed its intention (if
    any) through the pipeline.  Returns the transaction body's result and
    any decisions that became final (group meld may defer them).  Read-only
    transactions return no decisions: they are never logged or melded. *)

val submit_draft : t -> Hyder_codec.Intention.draft -> Pipeline.decision list
(** Lower-level entry: meld an explicit draft. *)

val flush : t -> Pipeline.decision list
(** Flush a pending partial group. *)

val lcs : t -> int * int * Tree.t
val pipeline : t -> Pipeline.t
val counters : t -> Counters.t
