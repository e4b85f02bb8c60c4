(** Byte-level encoding primitives shared by the intention codec and the log.

    Writers append to a growable buffer; readers consume from a byte range
    with bounds checks.  Integers use LEB128 varints (intention trees are
    full of small structural integers, so varints materially shrink
    intentions, which the paper identifies as the quantity that drives meld
    cost). *)

exception Truncated
(** Raised by readers on premature end of input. *)

module Writer : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** A writer whose backing buffer starts at [capacity] bytes (default
      256) and doubles as appends need; it owns that buffer alone. *)

  val length : t -> int

  val u8 : t -> int -> unit
  val u32 : t -> int32 -> unit
  val varint : t -> int -> unit
  (** Non-negative values only. *)

  val varint64 : t -> int64 -> unit
  val bytes : t -> string -> unit
  (** Length-prefixed byte string. *)

  val substring : t -> string -> pos:int -> len:int -> unit
  (** Length-prefixed slice of [s], blitted straight from the source —
      equivalent to [bytes t (String.sub s pos len)] without the
      intermediate allocation. *)

  val raw : t -> Bytes.t -> pos:int -> len:int -> unit
  val contents : t -> string
end

module Reader : sig
  type t

  val of_string : ?pos:int -> ?len:int -> string -> t
  val pos : t -> int
  val remaining : t -> int
  val u8 : t -> int
  val u32 : t -> int32
  val varint : t -> int
  val varint64 : t -> int64
  val bytes : t -> string
  val skip : t -> int -> unit
end
