/* Monotonic clock binding for Hyder_util.Clock.

   CLOCK_MONOTONIC never jumps backwards under NTP slew or manual
   wall-clock adjustment, so stage durations derived from differences of
   this clock are always non-negative.

   The native entry point returns an unboxed double and allocates
   nothing (the OCaml external is [@@noalloc] with an [@unboxed]
   result); the bytecode entry point boxes the same reading. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <time.h>

double hyder_clock_monotonic_seconds(value unit)
{
  struct timespec ts;
#ifdef CLOCK_MONOTONIC
  clock_gettime(CLOCK_MONOTONIC, &ts);
#else
  clock_gettime(CLOCK_REALTIME, &ts);
#endif
  (void)unit;
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

CAMLprim value hyder_clock_monotonic_seconds_byte(value unit)
{
  return caml_copy_double(hyder_clock_monotonic_seconds(unit));
}
