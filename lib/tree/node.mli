(** Tree nodes and their meld metadata.

    The representation is concrete (and shared with [hyder_core]) because
    meld, premeld and group meld are defined structurally over it.

    Metadata per node (Section 2 / Appendix A of the paper, recast in the
    content-version formulation described in DESIGN.md):

    - vn: this version's identity.
    - cv: the {e content version} — the VN of the version that first
      generated this node's payload.  Appendix A calls the same information
      SCV when talking about the source node; carrying it on every node
      makes the conflict rules uniform:  a dependent access of key [k]
      conflicts iff the LCS's cv for [k] differs from the scv the
      intention recorded.
    - ssv: source structure version — the VN of the same-key node in the
      state this node was derived from (absent for a fresh insert).
    - scv: source content version — the cv of that same-key source node.
    - altered: the producing transaction changed the payload.
    - depends_on_content: the transaction read the payload and runs at an
      isolation level that validates reads (the paper's DependsOn flag).
    - depends_on_structure: the transaction depends on the whole subtree
      under this node being unchanged — used for range scans and reads of
      absent keys (phantom avoidance; the paper defers this metadata
      to [8]).
    - owner: log position of the intention this node belongs to, or
      [state_owner] for nodes of melded states (including genesis and
      ephemeral nodes created by final meld).  Meld uses it to decide
      whether a node is "inside" the intention being melded.
    - has_writes: subtree summary — true iff this node or any descendant
      {e belonging to the same intention} was altered or inserted.  Drives
      the Section 3.3 read-only-subtree rule.

    {2 Packed representation}

    All of the above is packed into one immediate [int] ([meta]) plus
    eight plain int words, two per version, so the meld/premeld/group-meld
    hot loops test metadata with masks and compare versions word by word
    — no option allocation, no [caml_equal], no second cache miss into a
    boxed [Vn.t] — and constructing an ephemeral node allocates exactly
    one 14-word block:

    - [meta] bits 0..9 are flags (see {!Meta}; the low three equal the
      wire codec's flag-byte bits), bits 10.. hold [owner + 1] so state
      nodes ([owner = -1]) have zero owner bits.
    - Each version is two words: [(pos, idx)] of a logged VN, or
      [(thread, seq)] of an ephemeral one.  Its value class is a meta
      bit ({!Meta.vn_ephemeral}, {!Meta.cv_ephemeral},
      {!Meta.ssv_ephemeral}, {!Meta.scv_ephemeral}), never the sign of a
      word: a wire varint wraps modulo 2{^63}, so a sign-encoded class
      would let a corrupt logged reference alias an ephemeral node.
    - [vn_a]/[vn_b] and [cv_a]/[cv_b] are always present;
      [ssv_a]/[ssv_b] and [scv_a]/[scv_b] hold a source version when the
      {!Meta.ssv_present} / {!Meta.scv_present} bit is set, and are
      [0, 0] otherwise.
    - [key], [meta], the vn words and the child links come first, so a
      descent mostly stays within one cache line per node.

    The packing is a pure re-encoding of the boxed record it replaced —
    the wire format, {!Tree.digest} and all meld decisions are unchanged
    (DESIGN.md §11).

    {2 Sentinel empty}

    The empty tree is the statically-allocated sentinel {!empty} (its
    children point to itself) rather than a variant constructor: child
    links reference node records directly, so an ephemeral node is one
    block with no [Node of node] wrapper, and traversals follow
    one pointer per child.  Test emptiness with {!is_empty} (physical
    equality); recursions must check it before touching children — the
    sentinel's children are the sentinel itself. *)

type tree = node

and node = {
  key : Key.t;
  meta : int;  (** flag and class bits + biased owner; see {!Meta} *)
  vn_a : int;  (** this version: [pos] or [thread] *)
  vn_b : int;  (** [idx] or [seq] *)
  left : tree;
  right : tree;
  cv_a : int;  (** content version, same encoding *)
  cv_b : int;
  payload : Payload.t;
  ssv_a : int;
  ssv_b : int;
  scv_a : int;
  scv_b : int;
}

val state_owner : int
(** The owner value (-1) marking nodes that belong to a database state
    rather than to a pending intention. *)

val empty : tree
(** The empty tree: a unique sentinel node.  Its [meta] is 0 (so it never
    matches a same-owner has-writes mask test) and its children are
    itself; no other field may be read. *)

val is_empty : tree -> bool
(** Physical equality with {!empty}. *)

(** Bit layout of {!node.meta}. *)
module Meta : sig
  val altered : int  (** 0x01 — also the wire flag bit *)

  val dep_content : int  (** 0x02 — also the wire flag bit *)

  val dep_structure : int  (** 0x04 — also the wire flag bit *)

  val has_writes : int  (** 0x08; recomputed by {!pack}, never carried *)

  val ssv_present : int  (** 0x10 *)

  val ssv_ephemeral : int  (** 0x20 — value class of [ssv_a]/[ssv_b] *)

  val scv_present : int  (** 0x40 *)

  val scv_ephemeral : int  (** 0x80 *)

  val vn_ephemeral : int  (** 0x100 — value class of [vn_a]/[vn_b] *)

  val cv_ephemeral : int  (** 0x200 — value class of [cv_a]/[cv_b] *)

  val flags_mask : int  (** 0x3ff *)

  val dependent_mask : int
  (** [altered lor dep_content lor dep_structure]: non-zero meta
      intersection ⇔ the node is dependent (read or written). *)

  val source_mask : int
  (** The four ssv/scv presence + class bits. *)

  val carry_mask : int
  (** Flag bits that survive an owner rewrite that gives the node a new
      logged vn: [flags_mask] minus [has_writes] and [vn_ephemeral]. *)

  (** {3 Class moves}

      Branch-free shifts of a class bit between version slots, for
      storing one version word pair in another slot. *)

  val scv_of_cv : int -> int
  (** [scv_present] plus the scv class of the meta's cv. *)

  val sources_of : int -> int
  (** The source bits of a copy whose ssv is this node's vn and whose
      scv is its cv: [ssv_present], [scv_present] and the two classes. *)

  val owner_shift : int  (** 10 *)

  val owner_mask : int
  (** All bits above the flags. *)

  val owner_bits : int -> int
  (** [(owner + 1) lsl owner_shift]. *)
end

val pack :
  key:Key.t ->
  payload:Payload.t ->
  left:tree ->
  right:tree ->
  vn_a:int ->
  vn_b:int ->
  cv_a:int ->
  cv_b:int ->
  meta:int ->
  ssv_a:int ->
  ssv_b:int ->
  scv_a:int ->
  scv_b:int ->
  node
(** Low-level constructor over the packed representation: [meta] supplies
    flag, class and owner bits, and the [has_writes] bit is recomputed
    from the other bits and the same-owner children (any [has_writes] bit
    in the given [meta] is ignored).  This is the hot-path constructor —
    one block allocated, no closures. *)

val make :
  key:Key.t ->
  payload:Payload.t ->
  left:tree ->
  right:tree ->
  vn:Vn.t ->
  cv:Vn.t ->
  ssv:Vn.t option ->
  scv:Vn.t option ->
  altered:bool ->
  depends_on_content:bool ->
  depends_on_structure:bool ->
  owner:int ->
  node
(** Smart constructor over the unpacked field view; computes [has_writes]
    from the fields and the same-owner children.  Cold paths only. *)

(** {2 Metadata accessors} *)

val owner : node -> int
val altered : node -> bool
val depends_on_content : node -> bool
val depends_on_structure : node -> bool
val has_writes : node -> bool
val has_ssv : node -> bool
val has_scv : node -> bool

(** {2 Boxed views}

    Each allocates; cold paths only (error messages, {!Tree.digest}-style
    dumps, tests).  The hot loops compare the words. *)

val vn : node -> Vn.t
val cv : node -> Vn.t
val ssv : node -> Vn.t option
val scv : node -> Vn.t option

(** {2 Word-level version tests} *)

val ssv_equals : node -> node -> bool
(** [ssv_equals n m]: [n]'s ssv is [m]'s vn — the graft test.  False when
    [n] has no ssv.  No allocation. *)

val scv_equals : node -> node -> bool
(** [scv_equals n m]: [n]'s scv is [m]'s cv — the content-conflict
    test.  False when [n] has no scv. *)

val size : tree -> int
(** Total nodes (including tombstones). *)

val live_size : tree -> int
(** Nodes whose payload is not a tombstone. *)

val depth : tree -> int

val pp : Format.formatter -> tree -> unit
(** Multi-line structural dump, for debugging and golden tests. *)
