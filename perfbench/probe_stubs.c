/* Clock and resource probes the OCaml Unix library does not expose: a
   nanosecond monotonic clock for span timing, and peak resident set size
   for this process and for its reaped children. */

#include <time.h>
#include <sys/resource.h>
#include <caml/mlvalues.h>

value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}

value perfbench_maxrss_kb(value children)
{
  struct rusage ru;
  if (getrusage(Bool_val(children) ? RUSAGE_CHILDREN : RUSAGE_SELF, &ru) != 0)
    return Val_long(0);
  return Val_long(ru.ru_maxrss);
}
