(** Metrics registry: named log₂-bucketed histograms.

    Histograms are resolved {e once} by name (at wiring time) and then
    updated through direct record mutation, so the hot path never touches
    the registry's table.  Snapshots are immutable copies with
    subtraction semantics, which is how a measurement is scoped to a
    warmed-up window: snapshot at window start, snapshot at window end,
    {!diff}.  The flight recorder's per-stage histograms are the one
    client ({!Flight.create}).

    Histograms bucket by powers of two ([2^i, 2^{i+1})), covering
    [2^-16 .. 2^48), with clamping at both ends.  Observation is a
    [frexp] plus two array writes. *)

module Histogram : sig
  type t

  val n_buckets : int
  (** 64 *)

  val bucket_of : float -> int
  (** Bucket index of a value: [i] such that
      [lower_bound i <= x < lower_bound (i+1)], clamped to
      [\[0, n_buckets)]; non-positive values land in bucket 0. *)

  val lower_bound : int -> float
  (** [lower_bound i = 2^(i - 16)]. *)

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val bucket_counts : t -> int array
  (** A copy. *)
end

type t

val create : unit -> t

val histogram : t -> string -> Histogram.t
(** Find-or-create by name. *)

(** {2 Snapshots} *)

type value = Histogram_v of { counts : int array; count : int; sum : float }

type snapshot = (string * value) list
(** Sorted by name; immutable. *)

val snapshot : t -> snapshot

val diff : base:snapshot -> snapshot -> snapshot
(** Per-name subtraction of bucket counts, count and sum (a name missing
    from [base] subtracts zero).  Names only in [base] are dropped. *)
