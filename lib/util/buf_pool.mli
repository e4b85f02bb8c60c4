(** Single-owner freelist of [Bytes.t] scratch buffers.

    The codec hot path would allocate a fresh backing buffer per encode;
    that churn lands on the minor heap and poisons the calibrated stage
    costs (DESIGN.md §6.6).  A pool turns it into pointer bumps on a
    per-domain freelist.

    {b Not thread-safe by design}: one pool per domain.  Buffers cross
    domains only while checked out, never while pooled. *)

type t

val create : unit -> t

val acquire : t -> int -> Bytes.t
(** A buffer of at least the requested size (rounded up to a power of
    two, 16-byte floor).  Contents are unspecified. *)

val release : t -> Bytes.t -> unit
(** Return a buffer to the pool.  Only power-of-two sizes from
    {!acquire} are retained (bounded per bucket); anything else is left
    to the GC.  Using a buffer after release is a caller bug.  Releasing
    the same buffer twice while its first release is still parked, or
    releasing more pool-eligible buffers than were acquired, raises
    [Invalid_argument] — cheap canaries for lifetime bugs. *)

val hits : t -> int
(** Acquires served from the freelist. *)

val misses : t -> int
(** Acquires that had to allocate. *)

val pooled : t -> int
(** Buffers currently parked in the freelist. *)

val in_flight : t -> int
(** Pool-eligible buffers acquired and not yet released.  A fully
    drained pipeline must bring this back to zero; a positive residue is
    a leak, a negative one an extra release. *)
