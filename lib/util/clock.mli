(** Monotonic time source for stage timing.

    [Unix.gettimeofday] follows the wall clock, which NTP or an operator
    can step backwards; a duration computed from two wall-clock readings
    can then come out negative and poison per-stage accounting.  This
    module reads [CLOCK_MONOTONIC] instead: only differences of readings
    are meaningful, and they are guaranteed non-negative.

    Thread-safe: [now] is a plain syscall with no shared state, so any
    domain may call it concurrently.  In native code it allocates
    nothing: the reading comes back as an unboxed float, so a timer
    around a stage adds no minor-heap words of its own. *)

external now : unit -> (float[@unboxed])
  = "hyder_clock_monotonic_seconds_byte" "hyder_clock_monotonic_seconds"
[@@noalloc]
(** Seconds from an arbitrary fixed origin, monotonically non-decreasing. *)

val elapsed : float -> float
(** [elapsed t0] is [now () -. t0], clamped at [0.] for safety. *)
