(** Flyweight intention view: the wire encoding read in place.

    A view is what the download stage produces instead of a decoded
    [Node] tree: per node, a handful of immediate ints (key, packed meta
    word, child descriptors, byte offset into the wire buffer) plus the
    already-bound external references.  Meld walks it through the
    accessors below — which read the original wire bytes in place and
    allocate nothing — and {!materialize}s only the nodes it actually
    grafts into its output.

    Invariants established by {!parse}:
    - the whole encoding is validated up front (same checks, order and
      error messages as the eager decoder), so accessors never fail;
    - every ref child and elided payload is bound to a real resolved
      node, so {!materialize} is total and never consults a resolver;
    - the backing string is immutable and never pooled — a view pins it.

    Ownership: one walker at a time — the cold accessors share a scratch
    cursor and the materialization memo is unsynchronized.  Views cross
    pipeline stage queues (a worker's parse to the driver, the driver's
    parse to a premeld worker, premeld to the group-meld worker, and
    back to final meld) under one rule: whoever pushes an intention onto
    a queue never touches it or its view again.  The queue's publication
    orders the pusher's last access before the popper's first. *)

open Hyder_tree

exception Corrupt of string

type resolver = snapshot:int -> key:Key.t -> vn:Vn.t -> Node.tree

type t

val parse : pos:int -> peer:Node.tree -> resolve:resolver -> string -> t
(** Validate the encoding [s] and bind its external references.  [pos]
    is the log position the intention is (or will be) appended at — the
    owner stamped into every node.  [peer] is the root of the snapshot
    tree the intention executed against ([Node.empty] when unavailable);
    references are first looked up there by key and only fall back to
    [resolve] when the snapshot cannot answer.  Raises {!Corrupt}
    exactly when the eager decoder would. *)

val peek_snapshot : string -> int
(** The snapshot position heading the encoding, read without parsing
    further and without allocating.  Raises {!Corrupt} on a truncated
    header. *)

val uint_at : string -> int -> int * int
(** [uint_at s p] reads the varint at offset [p] of [s] as {!parse}
    reads every wire integer: [(x, p')] with [p'] the offset past it,
    [x] equal to [Int64.to_int] of {!Hyder_util.Wire.Reader.varint64}'s
    value over the same bytes.  Raises {!Hyder_util.Wire.Truncated}
    exactly when that reader would.  Exposed so the parse's unrolled
    short paths can be checked against the reference reader. *)

(** {1 Header} *)

val pos : t -> int
val snapshot : t -> int
val server : t -> int
val txn_seq : t -> int

val isolation_code : t -> int
(** Raw wire code 0..2 (validated); [Codec.isolation_of_int] converts. *)

val node_count : t -> int
val byte_size : t -> int

val root_index : t -> int
(** [node_count - 1]; negative for an empty intention. *)

(** {1 Per-node accessors}

    Nodes are indexed [0 .. node_count - 1] in post order (children
    before parents, root last), although the wire writes their records
    in pre order.  Child descriptors are ints: [>= 0] an
    inside node index, [-1] empty, [<= -2] a bound external reference
    (see {!kid_slot}).  None of these allocate. *)

val key : t -> int -> Key.t
val meta : t -> int -> int

val kid_l : t -> int -> int
val kid_r : t -> int -> int
val kid_empty : int
val kid_is_inside : int -> bool
val kid_is_empty : int -> bool

val kid_slot : int -> int
(** Reference slot of a [<= -2] child descriptor. *)

val ref_of : t -> int -> Node.tree
(** The bound reference behind a [<= -2] child descriptor. *)

val vn : t -> int -> Vn.t
(** The node's version — [Vn.logged ~pos ~idx].  Allocates the vn; cold
    paths only. *)

val ssv_equals : t -> int -> Node.node -> bool
(** [ssv_equals v idx m]: the node's ssv is [m]'s vn.  Mirrors
    [Node.ssv_equals], re-reading the wire words in place. *)

val scv_equals : t -> int -> Node.node -> bool
(** [scv_equals v idx m]: the node's scv is [m]'s cv.  Mirrors
    [Node.scv_equals]. *)

val sources : t -> int -> int * int * int * int
(** [(ssv_a, ssv_b, scv_a, scv_b)] packed words, [0, 0] when absent —
    exactly what the eager decoder passes to [Node.pack].  An unaltered
    node's cv is its scv; an altered node's is its vn. *)

val payload : t -> int -> Payload.t
(** Memoized: tombstones and bound elided payloads are immediate; an
    inline wire payload is copied out once on first use. *)

val ssv : t -> int -> Vn.t option
(** Boxed ssv; cold paths only (corrupt-intention reports). *)

(** {1 Materialization} *)

val materialize : t -> int -> Node.tree
(** The heap node for [idx], field-identical to the eager decoder's —
    same key, payload object (for bound references), versions, meta and
    children.  Memoized, so repeated calls (and parent/child calls)
    share physical nodes. *)

val materialize_root : t -> Node.tree
(** [materialize] of the root; [Node.empty] for an empty intention. *)
