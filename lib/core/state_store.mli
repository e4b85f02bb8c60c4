open Hyder_tree

(** Retained database states.

    Each server must keep recent committed states: premeld needs the state
    the index arithmetic of Algorithm 1 designates, the deserializer needs
    to resolve intention references against the originating transaction's
    snapshot, and executors need stable snapshots.  States are cheap to
    retain — consecutive states share all but O(log n) nodes.

    Two numberings coexist: the {e sequence number} (dense: the i-th
    intention melded, genesis = -1) and the {e log position} (sparse: the
    last-block position of that intention).  Premeld arithmetic uses
    sequence numbers; intention metadata uses log positions.

    A store is read and written by its pipeline alone. *)

type t

val create : genesis:Tree.t -> unit -> t

val latest : t -> int * int * Tree.t
(** [(seq, pos, state)] of the current last committed state. *)

val record : t -> seq:int -> pos:int -> Tree.t -> unit
(** Record the state after melding intention [seq] at log position [pos]
    (for an aborted intention, the unchanged previous state).  [seq] must be
    consecutive and [pos] increasing. *)

val by_seq : t -> int -> Tree.t option
(** State after intention [seq]; [-1] is genesis.  [None] if pruned or not
    yet produced; genesis counts as pruned once {!prune} has dropped it. *)

val by_pos : t -> int -> Tree.t option
(** State as of log position [pos]: the newest recorded state whose
    position is [<= pos].  [-1] is genesis, pruned like {!by_seq}'s. *)

val seq_of_pos : t -> int -> int
(** Sequence number of the newest intention with log position [<= pos]. *)

val require : t -> stage:string -> int -> Tree.t
(** State after sequence number [seq], or [Failure] naming the requesting
    [stage] and the retained range — prune-safety violations must say
    whose arithmetic was starved. *)

val resolver : ?stage:string -> t -> Hyder_codec.Codec.resolver
(** Resolver for the deserializer: looks the key up in the state at the
    intention's snapshot position.  [stage] (default ["ds"]) names the
    caller in prune-safety failures. *)

(** A frozen copy of the retention window, as a checkpoint carries it. *)
module Snapshot : sig
  type t

  val latest : t -> int * int
  (** [(seq, pos)] of the newest retained entry; [(-1, -1)] if none. *)

  val by_seq : t -> int -> Hyder_tree.Tree.t option
  (** Same contract as {!val:by_seq} on the live store, frozen. *)
end

val snapshot : t -> Snapshot.t
(** O(retained) copy of the current retention window. *)

val restore : Snapshot.t -> t
(** Rebuild a live store from a frozen window — the crash-recovery path.
    The restored store retains exactly the snapshot's entries and keeps
    its pruned-history strictness, so every lookup answers as the source
    store would have at capture time; [record] continues from the
    snapshot's newest [(seq, pos)]. *)

val prune : t -> keep:int -> unit
(** Drop states older than the newest [keep].  The first prune that drops a
    state and leaves one drops genesis too, so it no longer pins the
    genesis version of every node the log has rewritten; from then on
    the newest state is always kept. *)

val retained : t -> int
