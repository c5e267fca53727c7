/* epoll(7) stubs for Netio.Poller, which the transport's one event
 * loop per process (Transport.Loop) waits in: every in-process
 * server's listen socket and connections, every mux link, and the
 * loop's wake pipe.  The project builds on Linux only.
 *
 * An event is a single OCaml int:
 *
 *     (fd << 3) | bits     bits: 1 = readable, 2 = writable, 4 = error
 *
 * Level-triggered, matching the loop's drain-to-EAGAIN read paths.  The
 * wait takes its timeout in nanoseconds and sleeps in epoll_pwait2(2),
 * so a 0.3 ms delivery deadline wakes at 0.3 ms, not at the next whole
 * millisecond.  A kernel without epoll_pwait2 (before 5.11, or a
 * seccomp filter that refuses it) is detected on the first call and
 * remembered; from then on epoll_wait(2) runs with the timeout rounded
 * up to milliseconds.  The first wait on each thread also sets that
 * thread's timer slack to 1 ns (prctl(PR_SET_TIMERSLACK)): with the
 * default 50 us, every wake-up lands up to 50 us past its deadline, and
 * a delayed frame's release pays it on both legs of a round trip.  Only
 * the threads that wait here are changed: the event loop's, which
 * sleeps to the deadline of the next frame any mux has staged (and any
 * other thread that waits in a poller of its own, as the tests do); a
 * refused prctl keeps the default.
 *
 * Every stub here releases the OCaml runtime lock around its syscalls
 * (the wait, epoll_create and epoll_ctl alike), and none holds it
 * across one: a thread blocked in the wait never stalls the other
 * threads of its domain.  Events land in C memory while the lock is
 * released and are copied into the OCaml array after it is taken back:
 * the GC may move or compact heap blocks while we are not holding it.
 *
 * EINTR is reported as "0 events ready"; the loop re-checks its
 * deadlines and waits again, mirroring Netio's EINTR policy.
 */

#define _GNU_SOURCE
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/threads.h>

#include <errno.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#define MWREG_RD 1
#define MWREG_WR 2
#define MWREG_ERR 4

static void mwreg_sys_fail(const char *who)
{
  char msg[160];
  snprintf(msg, sizeof msg, "%s: %s", who, strerror(errno));
  caml_failwith(msg);
}

CAMLprim value mwreg_epoll_create(value unit)
{
  int ep;
  (void)unit;
  caml_release_runtime_system();
  ep = epoll_create1(0);
  caml_acquire_runtime_system();
  if (ep == -1) mwreg_sys_fail("epoll_create1");
  return Val_int(ep);
}

/* One epoll_ctl, with registry drift tolerated rather than fatal: a
   re-add becomes a modify, a modify of a forgotten fd becomes an add,
   deleting an absent (or already-closed) fd is a no-op.  Returns 0, or
   the errno of the failure.  Runs without the runtime lock: touches no
   OCaml value. */
static int mwreg_epoll_ctl_nolock(int ep, int op, int fd,
                                  struct epoll_event *ev)
{
  if (epoll_ctl(ep, op, fd, ev) == 0) return 0;
  if (op == EPOLL_CTL_ADD && errno == EEXIST) {
    if (epoll_ctl(ep, EPOLL_CTL_MOD, fd, ev) == 0) return 0;
  } else if (op == EPOLL_CTL_MOD && errno == ENOENT) {
    if (epoll_ctl(ep, EPOLL_CTL_ADD, fd, ev) == 0) return 0;
  } else if (op == EPOLL_CTL_DEL && (errno == ENOENT || errno == EBADF)) {
    return 0;
  }
  return errno;
}

CAMLprim value mwreg_epoll_ctl(value vep, value vop, value vfd, value vbits)
{
  struct epoll_event ev;
  int bits = Int_val(vbits);
  int ep = Int_val(vep), fd = Int_val(vfd), err;
  int op = Int_val(vop) == 0   ? EPOLL_CTL_ADD
           : Int_val(vop) == 1 ? EPOLL_CTL_MOD
                               : EPOLL_CTL_DEL;
  memset(&ev, 0, sizeof ev);
  ev.events = 0;
  if (bits & MWREG_RD) ev.events |= EPOLLIN;
  if (bits & MWREG_WR) ev.events |= EPOLLOUT;
  ev.data.fd = fd;
  caml_release_runtime_system();
  err = mwreg_epoll_ctl_nolock(ep, op, fd, &ev);
  caml_acquire_runtime_system();
  if (err != 0) {
    errno = err;
    mwreg_sys_fail("epoll_ctl");
  }
  return Val_unit;
}

/* Set once epoll_pwait2 has failed with ENOSYS/EPERM; every later wait
   goes straight to epoll_wait.  Racing threads can only both set it. */
static volatile int mwreg_no_pwait2 = 0;

/* Set once this thread has asked for 1 ns timer slack.  1, not 0: a
   slack of 0 resets the thread to its default. */
static __thread int mwreg_slack_set = 0;

/* Wait up to [ns] nanoseconds (0 = poll).  Runs without the runtime
   lock: touches no OCaml value. */
static int mwreg_epoll_wait_ns(int ep, struct epoll_event *evs, int cap,
                               long long ns)
{
  if (!mwreg_slack_set) {
    (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    mwreg_slack_set = 1;
  }
  if (!mwreg_no_pwait2) {
    int n;
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 35)
    struct timespec ts;
    ts.tv_sec = (time_t)(ns / 1000000000LL);
    ts.tv_nsec = (long)(ns % 1000000000LL);
    n = epoll_pwait2(ep, evs, cap, &ts, NULL);
#elif defined(SYS_epoll_pwait2)
    /* The kernel's struct __kernel_timespec: two 64-bit fields on every
       ABI, whatever this libc's time_t is. */
    struct { long long tv_sec; long long tv_nsec; } kts;
    kts.tv_sec = ns / 1000000000LL;
    kts.tv_nsec = ns % 1000000000LL;
    n = (int)syscall(SYS_epoll_pwait2, ep, evs, cap, &kts, NULL, 0);
#else
    n = -1;
    errno = ENOSYS;
#endif
    if (n != -1 || (errno != ENOSYS && errno != EPERM)) return n;
    mwreg_no_pwait2 = 1;
  }
  return epoll_wait(ep, evs, cap, (int)((ns + 999999LL) / 1000000LL));
}

CAMLprim value mwreg_epoll_wait(value vep, value vtimeout_ns, value varr)
{
  CAMLparam3(vep, vtimeout_ns, varr);
  int cap = Wosize_val(varr);
  int ep = Int_val(vep);
  long long ns = Long_val(vtimeout_ns);
  int n, i;
  struct epoll_event *evs;
  if (cap <= 0) CAMLreturn(Val_int(0));
  if (ns < 0) ns = 0;
  evs = malloc(sizeof(struct epoll_event) * cap);
  if (evs == NULL) caml_failwith("epoll_wait: out of memory");
  caml_release_runtime_system();
  n = mwreg_epoll_wait_ns(ep, evs, cap, ns);
  caml_acquire_runtime_system();
  if (n == -1) {
    int e = errno;
    free(evs);
    if (e == EINTR) CAMLreturn(Val_int(0));
    errno = e;
    mwreg_sys_fail("epoll_wait");
  }
  for (i = 0; i < n; i++) {
    int bits = 0;
    if (evs[i].events & (EPOLLIN | EPOLLRDHUP)) bits |= MWREG_RD;
    if (evs[i].events & EPOLLOUT) bits |= MWREG_WR;
    if (evs[i].events & (EPOLLERR | EPOLLHUP)) bits |= MWREG_ERR;
    Store_field(varr, i, Val_int((evs[i].data.fd << 3) | bits));
  }
  free(evs);
  CAMLreturn(Val_int(n));
}
