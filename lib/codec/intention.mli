open Hyder_tree
(** Intention records.

    An intention is the log's unit: one transaction's produced state,
    physically the new node versions it created (root-to-changed-node paths,
    plus readset annotations under serializable isolation), with references
    to the unchanged subtrees of its snapshot (Section 2).

    A {e draft} is the in-memory intention a transaction executor builds:
    its nodes carry the placeholder owner {!draft_owner} and placeholder
    VNs (logged at position [max_int]; see [Tree]).  Real identities
    exist only once a log position is known — either via {!assign}
    (in-process experiments and tests) or by the encode → append → decode
    path (the distributed pipeline) — because VNs are calculated from log
    addresses and must agree on every server. *)

type isolation = Serializable | Snapshot_isolation | Read_committed

val isolation_to_string : isolation -> string

type draft = {
  snapshot : int;  (** log position of the input snapshot; -1 = genesis *)
  server : int;  (** originating server *)
  txn_seq : int;  (** per-server transaction sequence number *)
  isolation : isolation;
  root : Node.tree;  (** draft nodes owned by {!draft_owner} *)
}

type t = {
  pos : int;  (** log position (of the last block) = the intention's id *)
  snapshot : int;
  server : int;
  txn_seq : int;
  isolation : isolation;
  root : Node.tree;  (** the intention's tree; inside nodes owned by [pos] *)
  node_count : int;  (** nodes belonging to the intention *)
  byte_size : int;  (** encoded size in bytes (0 if never encoded) *)
}

val draft_owner : int
(** Owner tag of not-yet-appended draft nodes. *)

val assign : pos:int -> ?byte_size:int -> draft -> t
(** Renumber a draft as the intention at log position [pos]: every draft
    node receives owner [pos] and VN [Logged (pos, post-order index)], and
    content versions of altered nodes follow.  The wire order is pre-order;
    the index is not written but counted by the decoder.  This is exactly the identity
    assignment the decoder performs, so [assign ~pos d] and
    [decode (encode d)] agree. *)

val node_count : t -> int
val inside : t -> Node.node -> bool
(** Does the node belong to this intention (vs its snapshot)? *)
