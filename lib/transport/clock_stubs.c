/* Monotonic time source for transport deadlines: CLOCK_MONOTONIC, in
 * seconds.  The project builds on Linux only, where it always exists. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>

#include <time.h>

CAMLprim value mwreg_clock_monotonic(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
