external now : unit -> (float[@unboxed])
  = "hyder_clock_monotonic_seconds_byte" "hyder_clock_monotonic_seconds"
[@@noalloc]

let elapsed t0 = Float.max 0.0 (now () -. t0)
