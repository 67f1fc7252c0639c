/* poll(2) binding for the event-loop server.  Unix.select tops out
   at FD_SETSIZE (1024 on Linux) descriptors -- writing a larger fd
   into an fd_set is undefined behaviour -- so a server meant to hold
   10k+ connections needs a real poller.  The binding is deliberately minimal: the caller passes
   parallel int arrays (fds, requested events, a revents out-buffer)
   and gets poll's return count back; event bit values are exported
   from <poll.h> so the OCaml side never hard-codes platform bits. */

#include <poll.h>
#include <errno.h>
#include <stdlib.h>
#include <string.h>

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/threads.h>

CAMLprim value mira_poll_constants(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(res);
  res = caml_alloc_tuple(5);
  Store_field(res, 0, Val_int(POLLIN));
  Store_field(res, 1, Val_int(POLLOUT));
  Store_field(res, 2, Val_int(POLLERR));
  Store_field(res, 3, Val_int(POLLHUP));
  Store_field(res, 4, Val_int(POLLNVAL));
  CAMLreturn(res);
}

#include <sys/resource.h>

/* Soft RLIMIT_NOFILE: how many descriptors this process may hold.
   The scale probe and the idle-connection tests size themselves (or
   skip, with a logged reason) from this. */
CAMLprim value mira_rlimit_nofile(value unit)
{
  struct rlimit rl;
  (void)unit;
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return Val_int(1024);
  if (rl.rlim_cur == RLIM_INFINITY || rl.rlim_cur > (rlim_t)Max_long)
    return Val_long(Max_long);
  return Val_long((long)rl.rlim_cur);
}

/* mira_poll_stub fds events revents timeout_ms
   -> number of ready descriptors, or -1 if the wait was interrupted
      by a signal (the caller retries with a recomputed timeout).
   The three arrays must have identical lengths; revents is filled in
   place (immediate ints, so no write barrier is needed). */
CAMLprim value mira_poll_stub(value v_fds, value v_events, value v_revents,
                              value v_timeout)
{
  CAMLparam4(v_fds, v_events, v_revents, v_timeout);
  mlsize_t n = Wosize_val(v_fds);
  int timeout = Int_val(v_timeout);
  struct pollfd *pfds = NULL;
  int rc;
  mlsize_t i;

  if (n > 0) {
    pfds = malloc(n * sizeof(struct pollfd));
    if (pfds == NULL) caml_failwith("mira_poll: out of memory");
    for (i = 0; i < n; i++) {
      pfds[i].fd = Int_val(Field(v_fds, i));
      pfds[i].events = (short)Int_val(Field(v_events, i));
      pfds[i].revents = 0;
    }
  }

  caml_enter_blocking_section();
  rc = poll(pfds, (nfds_t)n, timeout);
  caml_leave_blocking_section();

  if (rc < 0) {
    int err = errno;
    free(pfds);
    if (err == EINTR) CAMLreturn(Val_int(-1));
    caml_failwith(strerror(err));
  }

  for (i = 0; i < n; i++)
    Field(v_revents, i) = Val_int(pfds[i].revents);
  free(pfds);
  CAMLreturn(Val_int(rc));
}
