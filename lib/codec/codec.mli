open Hyder_tree
(** Intention serialization (Section 5.2).

    An intention tree is serialized by a post-order traversal, so each node
    is written after its children and can refer to them by index; pointers
    to nodes outside the intention are written as (VN, key) references.  The
    byte stream is split into fixed-size {e intention blocks} for the log;
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

(** Reusable encoder: one growable buffer (optionally backed by a
    per-domain {!Hyder_util.Buf_pool}) serves every encode, so the steady
    state allocates only the result string.  Single-owner: one encoder
    per domain. *)
module Encoder : sig
  type t

  val create : ?pool:Hyder_util.Buf_pool.t -> unit -> t

  val encode : t -> Intention.draft -> string
  (** Byte-identical to {!val:Codec.encode}. *)

  val free : t -> unit
  (** Release the backing buffer to the pool (if any). *)
end

type resolver = snapshot:int -> key:Key.t -> vn:Vn.t -> Node.tree
(** [resolve ~snapshot ~key ~vn] must return the node holding [key] in the
    database state at log position [snapshot]; [vn] is what the intention
    expects and can be used for integrity checking. *)

val peek_snapshot : ?off:int -> string -> int
(** The snapshot log position of the encoded intention at [off], read
    from the header without decoding.  The pipelined runtime uses this to
    decide whether a decode can be offloaded to a worker domain (its
    snapshot state is already recorded) or must wait for final meld to
    catch up.  Allocates nothing.  Raises {!Corrupt} on a truncated
    header. *)

val decode : pos:int -> resolve:resolver -> string -> Intention.t
(** Rebuild the intention appended at log position [pos].  Inside nodes get
    owner [pos] and VNs [Logged (pos, idx)] in post-order, matching
    {!Intention.assign}. *)

val decode_indexed :
  pos:int -> resolve:resolver -> string -> Intention.t * Node.tree array
(** Like {!decode}, and also returns the decoded nodes indexed by their
    post-order position -- the object table that lets later intentions'
    references to this one be swizzled in O(1) (Section 5.2's "node pointer
    to object pointer" transformation). *)

(** Reusable decode scratch: the per-intention swizzle table is the one
    allocation {!decode_indexed} makes beyond the nodes themselves, and
    on the pipelined hot path it is reused across intentions instead.
    Single-owner: one scratch per domain. *)
module Scratch : sig
  type t

  val create : unit -> t

  val clear : t -> unit
  (** Drop retained node references (GC hygiene between batches). *)
end

val decode_pooled :
  scratch:Scratch.t ->
  pos:int ->
  ?off:int ->
  ?len:int ->
  resolve:resolver ->
  string ->
  Intention.t
(** Like {!decode}, but decodes the [off]/[len] slice of [s] in place
    (no substring copy — the reader walks the slice directly) and
    swizzles through [scratch]'s reused table.  [byte_size] is the slice
    length.  The result is physically identical node-for-node to what
    {!decode} returns for the same bytes and resolver. *)

val decode_lazy :
  pos:int ->
  ?off:int ->
  ?len:int ->
  ?peer:Node.tree ->
  resolve:resolver ->
  string ->
  Intention.t
(** Flyweight decode of the [off]/[len] slice: one validation pass (same
    checks and {!Corrupt} messages as {!decode}), binding every external
    reference and elided payload — against [peer], the snapshot tree the
    intention executed under, with [resolve] as fallback — but building
    no heap nodes.  The result carries [view = Some v] and a placeholder
    [root]; meld walks the view directly and
    {!View.materialize_root} recovers the eager tree on demand. *)

(** Fragmentation of intention byte streams into log blocks. *)
module Blocks : sig
  val overhead : int
  (** Per-block framing bytes (upper bound). *)

  val split :
    ?pool:Hyder_util.Buf_pool.t ->
    block_size:int ->
    server:int ->
    txn_seq:int ->
    string ->
    string list
  (** Fragment an encoded intention into checksummed blocks of at most
      [block_size] bytes.  [pool] supplies (and takes back) the staging
      buffers, eliminating two buffer allocations per fragment. *)

  val blocks_needed : block_size:int -> int -> int
  (** How many blocks a payload of the given size occupies. *)

  (** Reassembles interleaved block streams back into intentions.  Blocks
      from different servers interleave arbitrarily in the log; blocks of
      one intention arrive in order because each server appends them in
      order. *)
  module Reassembler : sig
    type t

    val create : unit -> t

    val feed : t -> pos:int -> string -> (int * string) option
    (** Offer the block at log position [pos].  Returns
        [Some (intention_pos, bytes)] when this block completes an
        intention; [intention_pos] is [pos] of this (last) block. *)

    val pending : t -> int
    (** Intentions with fragments outstanding. *)
  end
end
