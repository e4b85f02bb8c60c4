(** Version numbers (VNs).

    Every node version carries a unique identity (Appendix A of the paper):

    - [Logged] versions are calculated from the log address: the log
      position of the intention that wrote the node, plus the node's
      post-order index within that intention (the wire writes records in
      pre-order; decoders number each node as their walk returns).  All servers deserialize the
      same log, so logged VNs agree everywhere by construction.  The
      pseudo-position [-1] is reserved for the genesis state loaded before
      the log starts.
    - [Ephemeral] versions identify nodes created by meld itself, which are
      never written to the log.  Per Section 3.4 they are two-part ids —
      (generating pipeline thread, per-thread sequence number) — so that
      premeld threads and final meld allocate identical ids on every server
      regardless of physical interleaving. *)

type t =
  | Logged of { pos : int; idx : int }
  | Ephemeral of { thread : int; seq : int }

val logged : pos:int -> idx:int -> t
val ephemeral : thread:int -> seq:int -> t

val genesis : idx:int -> t
(** VN of a node in the initial database load. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val intention_pos : t -> int option
(** The log position of the intention that logged this version, if any. *)

val is_ephemeral : t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Deterministic per-thread allocator for ephemeral VNs. *)
module Alloc : sig
  type t

  val create : thread:int -> t
  val thread : t -> int

  val next_seq : t -> int
  (** Issue the next VN, [Ephemeral { thread; seq }], as its [seq] word
      alone — meld stores versions unboxed (see [Node]). *)

  val issued : t -> int
  val reset : t -> unit

  val resume : t -> issued:int -> unit
  (** Restore the allocator cursor to a checkpointed {!issued} count, so a
      restarted pipeline continues the exact ephemeral-id stream the
      crashed one would have produced. *)
end
