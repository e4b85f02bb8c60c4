(** Measurement accumulators used by benchmarks and the cluster simulator. *)

(** Streaming mean / variance / extrema (Welford's algorithm); O(1) space. *)
module Summary : sig
  type t

  val create : unit -> t
  val clear : t -> unit

  val copy : t -> t
  (** Independent duplicate of the accumulator (the Welford state is a
      handful of scalars), for snapshotting at a measurement-window edge:
      further [add]s to either side leave the other untouched. *)

  val add : t -> float -> unit
  val count : t -> int
  val total : t -> float
  val mean : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float
end

(** Sample set retaining every observation; supports exact percentiles.
    Intended for latency distributions of bounded experiments. *)
module Sample : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float

  val percentile : t -> float -> float
  (** [percentile s p] with [p] in [\[0, 100\]]; nearest-rank on the sorted
      sample.  Raises [Invalid_argument] on an empty sample. *)
end
