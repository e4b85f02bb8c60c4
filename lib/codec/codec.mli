open Hyder_tree
(** Intention serialization (Section 5.2).

    An intention tree is serialized by a pre-order traversal: each node's
    record comes before its left and then its right inside subtree, and an
    inside child is written as a bare tag, with no index.  Pointers to nodes
    outside the intention are written as (VN, key) references.  A decoder
    thus meets each node right after its parent and binds its references
    in the same pass; it numbers nodes in post order as its walk returns
    (DESIGN §13).  The byte stream is split into fixed-size {e intention blocks} for the log;
    an intention's blocks need not be contiguous in the log, and the
    intention's identity is the log position of its last block (Section
    5.1).  Deserialization swizzles references back to in-memory nodes via a
    caller-supplied resolver (the server's retained-state cache) and assigns
    node identities from the log address. *)

exception Corrupt of string
(** Raised on checksum mismatch or malformed input. *)

val encode : Intention.draft -> string
(** Serialize a draft intention to its wire form.  The snapshot position
    is the first field of the encoding, so {!peek_snapshot} can read it
    without decoding. *)

val encoded_size : Intention.draft -> int

(** Reusable encoder: it owns one growable buffer, which serves every
    encode, so the steady state allocates only the result string.  Not
    shareable between concurrent callers. *)
module Encoder : sig
  type t

  val create : unit -> t

  val encode : t -> Intention.draft -> string
  (** Byte-identical to {!val:Codec.encode}. *)
end

type resolver = snapshot:int -> key:Key.t -> vn:Vn.t -> Node.tree
(** [resolve ~snapshot ~key ~vn] must return the node holding [key] in the
    database state at log position [snapshot]; [vn] is what the intention
    expects and can be used for integrity checking. *)

val peek_snapshot : string -> int
(** The snapshot log position of the encoded intention, read from the
    header without decoding.  The pipeline uses it to look up the
    snapshot state a decode binds against, and to refuse an intention
    whose snapshot the log has not recorded yet.  Allocates nothing.  Raises {!Corrupt} on a truncated header. *)

val decode_lazy :
  pos:int -> ?peer:Node.tree -> resolve:resolver -> string -> Intention.t
(** The production decoder, and the only one any pipeline stage runs.
    Flyweight decode: one validation pass (the same checks and {!Corrupt}
    messages as the eager reference decoder kept beside the tests),
    binding every external reference and elided
    payload — against [peer], the snapshot tree the intention executed
    under, with [resolve] as fallback — but building no heap nodes.  The
    result carries [view = Some v] and a placeholder [root]; meld walks
    the view directly and {!View.materialize_root} recovers the eager
    tree on demand. *)

(** Fragmentation of intention byte streams into log blocks. *)
module Blocks : sig
  val overhead : int
  (** Per-block framing bytes (upper bound). *)

  val split :
    block_size:int -> server:int -> txn_seq:int -> string -> string list
  (** Fragment an encoded intention into checksummed blocks of at most
      [block_size] bytes. *)

  val blocks_needed : block_size:int -> int -> int
  (** How many blocks a payload of the given size occupies. *)

  val verify : pos:int -> string -> unit
  (** Check a block's checksum and framing without reassembling it.
      Raises {!Corrupt} exactly when {!Reassembler.feed} would for a
      reason other than fragment order. *)

  (** Reassembles interleaved block streams back into intentions.  Blocks
      from different servers interleave arbitrarily in the log; blocks of
      one intention arrive in order because each server appends them in
      order. *)
  module Reassembler : sig
    type t

    val create : unit -> t

    val copy : t -> t
    (** An independent copy of the outstanding partials: feeding one
        leaves the other as it was. *)

    val feed : t -> pos:int -> string -> (int * string) option
    (** Offer the block at log position [pos].  Returns
        [Some (intention_pos, bytes)] when this block completes an
        intention; [intention_pos] is [pos] of this (last) block.
        Raises {!Corrupt} on a checksum mismatch, a truncated frame or a
        fragment out of order, and then leaves [t] as it was. *)

    val pending : t -> int
    (** Intentions with fragments outstanding. *)
  end
end
