open Hyder_tree

(** A Hyder II transaction server (Section 5.2): the one per-server loop
    that turns log blocks into meld decisions.

    Transactions execute against the server's last-committed state and
    their intentions are serialized into blocks for the shared log; every
    block observed on the log (its own and other servers', in any order)
    is reassembled and melded in log order, and each outcome goes back to
    the issuing server.  Servers observing one log converge to physically
    identical states.  {!Hyder_cluster.Replica} runs one per replica under
    injected faults; {!Hyder_cluster.Cluster} is the performance model. *)

type t

val create :
  ?config:Pipeline.config ->
  ?block_size:int ->
  ?flight:Hyder_obs.Flight.t ->
  server_id:int ->
  genesis:Tree.t ->
  unit ->
  t
(** [flight] passes straight to {!Pipeline.create}. *)

val server_id : t -> int

val txn :
  t ->
  ?isolation:Hyder_codec.Intention.isolation ->
  (Executor.t -> 'a) ->
  'a * (int * string list) option
(** Execute a transaction on the current LCS.  A write transaction
    returns [Some (txn_seq, blocks)] for the caller to append to the log
    in order; its decision arrives through {!on_decision} once the blocks
    come back through {!observe_block}.  Read-only ones return [None]. *)

val on_decision : t -> (Pipeline.decision -> unit) -> unit
(** Register the callback for decisions on this server's own
    transactions. *)

type observed =
  | Accepted of Pipeline.decision list
      (** decisions that became final, any server's; none while the block
          waits behind a gap *)
  | Duplicate  (** already fed, or already waiting *)
  | Rejected
      (** checksum mismatch, truncated frame or fragment out of order;
          nothing changed *)

val observe_block : t -> pos:int -> string -> observed
(** Offer the block at log position [pos], in any order, any number of
    times.  Blocks past the first gap wait raw; the reassembler sees
    blocks strictly in log order and each completed intention melds
    through {!Pipeline.submit_wire_batch}.  A waiting block that fails to
    feed on its turn is dropped, leaving the gap to the caller.  A
    checksum-valid intention that fails to decode raises
    {!Hyder_codec.Codec.Corrupt}. *)

val on_meld : t -> (pos:int -> unit) -> unit
(** Register the callback run once the block at each position has been
    fed and what it completed has melded. *)

val next_pos : t -> int
val buffered : t -> int
(** Blocks waiting behind the gap at {!next_pos}. *)

val flush : t -> Pipeline.decision list
(** Force a partially filled group through final meld (stream end). *)

val lcs : t -> int * int * Tree.t
val counters : t -> Counters.t
val prune : t -> keep:int -> unit

(** {1 Crash recovery}

    The log is the ground truth: a restarted server restores its latest
    checkpoint and replays every block from {!replay_from} through
    {!observe_block}, reproducing exactly the decisions, states and
    counters it would have had. *)

type checkpoint

val checkpoint : t -> checkpoint option
(** {!Pipeline.checkpoint} plus a frozen copy of the reassembler's
    partial intentions, so an intention straddling the checkpoint
    reassembles exactly on replay.  [None] mid-group. *)

val restore :
  ?config:Pipeline.config ->
  ?block_size:int ->
  ?flight:Hyder_obs.Flight.t ->
  ?next_txn_seq:int ->
  server_id:int ->
  checkpoint ->
  t
(** Rebuild a server from a checkpoint (any number of times).  [config]
    must match the capturing server's.  Waiting blocks and in-flight
    transactions are lost; [next_txn_seq] restarts transaction
    numbering. *)

val replay_from : checkpoint -> int
(** One past the last block fed before the checkpoint. *)
