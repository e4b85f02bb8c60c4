/* Cache prefetch hint for Hyder_util.Prefetch.

   A prefetch has no semantics: it never faults and changes no value, so
   a walk may hint an address it is not yet sure to visit.  The second
   hint covers the block's sixth word, which shares a 64-byte line with
   the first only when the block starts early in its line. */

#include <caml/mlvalues.h>

CAMLprim value hyder_prefetch(value v)
{
  if (Is_block(v)) {
    __builtin_prefetch((const char *)v);
    __builtin_prefetch((const char *)v + 5 * sizeof(value));
  }
  return Val_unit;
}
