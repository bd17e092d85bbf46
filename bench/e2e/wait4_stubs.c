/* Child accounting for the benchmark runner: wait4(2) reports a
   terminated child's peak resident set size and CPU time, which the
   runner needs for the program it measures (not for itself). */

#define _GNU_SOURCE
#include <errno.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

static double tv_seconds(struct timeval tv)
{
  return (double)tv.tv_sec + (double)tv.tv_usec / 1e6;
}

/* mtcbench_wait4 pid nohang ->
   (reaped_pid, exit_code, term_signal, user_s, sys_s, maxrss_kb).
   reaped_pid is 0 when [nohang] is set and the child is still running;
   exit_code is -1 when the child did not exit normally. */
value mtcbench_wait4(value vpid, value vnohang)
{
  CAMLparam2(vpid, vnohang);
  CAMLlocal3(res, user, sys);
  int status = 0;
  struct rusage ru;
  pid_t pid = Int_val(vpid);
  int flags = Bool_val(vnohang) ? WNOHANG : 0;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, flags, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  if (r == 0) {
    ru.ru_utime.tv_sec = ru.ru_utime.tv_usec = 0;
    ru.ru_stime.tv_sec = ru.ru_stime.tv_usec = 0;
    ru.ru_maxrss = 0;
  }
  user = caml_copy_double(tv_seconds(ru.ru_utime));
  sys = caml_copy_double(tv_seconds(ru.ru_stime));
  res = caml_alloc_tuple(6);
  Store_field(res, 0, Val_int(r));
  Store_field(res, 1, Val_int(r > 0 && WIFEXITED(status) ? WEXITSTATUS(status) : -1));
  Store_field(res, 2, Val_int(r > 0 && WIFSIGNALED(status) ? WTERMSIG(status) : 0));
  Store_field(res, 3, user);
  Store_field(res, 4, sys);
  Store_field(res, 5, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

/* Clock ticks per second, the unit of utime/stime in /proc/PID/stat. */
value mtcbench_clk_tck(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_CLK_TCK));
}
