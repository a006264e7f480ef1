/* Batched-UDP and poll(2) stubs for the live runtime.
 *
 * sendmmsg/recvmmsg are Linux-only; elsewhere (or on ENOSYS) the
 * stubs report "unsupported" and the OCaml side falls back to a
 * portable sendto/recvfrom loop. Errors are returned as small
 * negative codes rather than raised, so the OCaml caller can keep
 * its existing drop-on-pressure semantics without exception churn:
 *
 *   >= 0  number of messages sent/received
 *   -1    would block / no buffer space (EAGAIN, EWOULDBLOCK, ENOBUFS)
 *   -2    connection refused (async ICMP from an earlier datagram)
 *   -3    interrupted (EINTR)
 *   -4    other error
 *   -5    unsupported on this platform (compile-time or ENOSYS)
 *
 * The mmsg stubs use MSG_DONTWAIT and never block, so they keep the
 * OCaml runtime lock; tw_poll blocks and must release it (a domain
 * sleeping in poll would otherwise stall every other domain's GC).
 */

#define _GNU_SOURCE

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/threads.h>

#include <errno.h>
#include <limits.h>
#include <poll.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#ifdef __linux__
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#endif

#define TW_ERR_WOULDBLOCK (-1)
#define TW_ERR_REFUSED (-2)
#define TW_ERR_INTR (-3)
#define TW_ERR_OTHER (-4)
#define TW_ERR_UNSUPPORTED (-5)

/* At most this many datagrams per syscall; the OCaml side loops. */
#define TW_MMSG_SLOTS 64

#ifdef __linux__
static value tw_map_errno(int err)
{
  switch (err) {
  case EAGAIN:
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
  case EWOULDBLOCK:
#endif
  case ENOBUFS:
    return Val_int(TW_ERR_WOULDBLOCK);
  case ECONNREFUSED:
    return Val_int(TW_ERR_REFUSED);
  case EINTR:
    return Val_int(TW_ERR_INTR);
  case ENOSYS:
    return Val_int(TW_ERR_UNSUPPORTED);
  default:
    return Val_int(TW_ERR_OTHER);
  }
}
#endif

CAMLprim value tw_mmsg_supported(value unit)
{
  (void)unit;
#ifdef __linux__
  return Val_true;
#else
  return Val_false;
#endif
}

/* tw_sendmmsg fd buf meta from count
 *
 * [buf] holds encoded frames back to back; [meta] is an int array
 * laid out as [off; len; port] per message. Sends messages
 * [from, min (from + TW_MMSG_SLOTS, count)) to 127.0.0.1:port in one
 * syscall and returns how many left the socket. All destinations are
 * loopback by construction of the live transport.
 */
CAMLprim value tw_sendmmsg(value v_fd, value v_buf, value v_meta,
                           value v_from, value v_count)
{
#ifdef __linux__
  int fd = Int_val(v_fd);
  long from = Long_val(v_from);
  long count = Long_val(v_count);
  long n = count - from;
  struct mmsghdr hdr[TW_MMSG_SLOTS];
  struct iovec iov[TW_MMSG_SLOTS];
  struct sockaddr_in addr[TW_MMSG_SLOTS];
  char *base = (char *)Bytes_val(v_buf);
  long i;
  int r;

  if (n > TW_MMSG_SLOTS) n = TW_MMSG_SLOTS;
  if (n <= 0) return Val_int(0);
  for (i = 0; i < n; i++) {
    long off = Long_val(Field(v_meta, 3 * (from + i)));
    long len = Long_val(Field(v_meta, (3 * (from + i)) + 1));
    long port = Long_val(Field(v_meta, (3 * (from + i)) + 2));
    memset(&addr[i], 0, sizeof(addr[i]));
    addr[i].sin_family = AF_INET;
    addr[i].sin_port = htons((uint16_t)port);
    addr[i].sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    iov[i].iov_base = base + off;
    iov[i].iov_len = (size_t)len;
    memset(&hdr[i], 0, sizeof(hdr[i]));
    hdr[i].msg_hdr.msg_iov = &iov[i];
    hdr[i].msg_hdr.msg_iovlen = 1;
    hdr[i].msg_hdr.msg_name = &addr[i];
    hdr[i].msg_hdr.msg_namelen = sizeof(addr[i]);
  }
  r = sendmmsg(fd, hdr, (unsigned int)n, MSG_DONTWAIT);
  if (r >= 0) return Val_int(r);
  return tw_map_errno(errno);
#else
  (void)v_fd;
  (void)v_buf;
  (void)v_meta;
  (void)v_from;
  (void)v_count;
  return Val_int(TW_ERR_UNSUPPORTED);
#endif
}

/* tw_recvmmsg fd ring slot lens vlen
 *
 * [ring] is a preallocated Bytes of at least vlen*slot; message i
 * lands at offset i*slot and its length is written to lens.(i).
 * [slot] must be >= the largest possible datagram so nothing is ever
 * truncated. Sender addresses are not collected — the transport
 * already drops foreign frames by the sender id inside the frame.
 */
CAMLprim value tw_recvmmsg(value v_fd, value v_ring, value v_slot,
                           value v_lens, value v_vlen)
{
#ifdef __linux__
  int fd = Int_val(v_fd);
  long slot = Long_val(v_slot);
  long vlen = Long_val(v_vlen);
  struct mmsghdr hdr[TW_MMSG_SLOTS];
  struct iovec iov[TW_MMSG_SLOTS];
  char *base = (char *)Bytes_val(v_ring);
  long i;
  int r;

  if (vlen > TW_MMSG_SLOTS) vlen = TW_MMSG_SLOTS;
  if (vlen <= 0) return Val_int(0);
  for (i = 0; i < vlen; i++) {
    iov[i].iov_base = base + (i * slot);
    iov[i].iov_len = (size_t)slot;
    memset(&hdr[i], 0, sizeof(hdr[i]));
    hdr[i].msg_hdr.msg_iov = &iov[i];
    hdr[i].msg_hdr.msg_iovlen = 1;
  }
  r = recvmmsg(fd, hdr, (unsigned int)vlen, MSG_DONTWAIT, NULL);
  if (r >= 0) {
    for (i = 0; i < r; i++)
      Field(v_lens, i) = Val_long((long)hdr[i].msg_len);
    return Val_int(r);
  }
  return tw_map_errno(errno);
#else
  (void)v_fd;
  (void)v_ring;
  (void)v_slot;
  (void)v_lens;
  (void)v_vlen;
  return Val_int(TW_ERR_UNSUPPORTED);
#endif
}

/* tw_poll fds revents nfds timeout_us
 *
 * POLLIN-polls [nfds] descriptors; revents.(i) is set to 1 when
 * descriptor i is readable (or in error/hangup — the subsequent read
 * surfaces the condition), 0 otherwise. Returns the number of ready
 * descriptors, or a negative code. Unlike select(2) there is no
 * FD_SETSIZE cap on descriptor values.
 *
 * The timeout is in microseconds. Linux waits with ppoll(2), whose
 * timespec keeps the deadline exact; elsewhere poll(2) gets it rounded
 * up to whole milliseconds, so the wait is never shorter than asked.
 */
CAMLprim value tw_poll(value v_fds, value v_revents, value v_nfds,
                       value v_timeout_us)
{
  CAMLparam4(v_fds, v_revents, v_nfds, v_timeout_us);
  long nfds = Long_val(v_nfds);
  long timeout_us = Long_val(v_timeout_us);
  struct pollfd stack_pfd[64];
  struct pollfd *pfd = stack_pfd;
  long i;
  int r;
#ifdef __linux__
  struct timespec ts;
#else
  long wait_ms;
#endif

  if (timeout_us < 0) timeout_us = 0;
#ifdef __linux__
  ts.tv_sec = (time_t)(timeout_us / 1000000);
  ts.tv_nsec = (long)(timeout_us % 1000000) * 1000;
#else
  wait_ms = (timeout_us + 999) / 1000;
  if (wait_ms > INT_MAX) wait_ms = INT_MAX;
#endif
  if (nfds > 64) {
    pfd = malloc(sizeof(struct pollfd) * (size_t)nfds);
    if (pfd == NULL) CAMLreturn(Val_int(TW_ERR_OTHER));
  }
  for (i = 0; i < nfds; i++) {
    pfd[i].fd = Int_val(Field(v_fds, i));
    pfd[i].events = POLLIN;
    pfd[i].revents = 0;
  }
  caml_release_runtime_system();
#ifdef __linux__
  r = ppoll(pfd, (nfds_t)nfds, &ts, NULL);
#else
  r = poll(pfd, (nfds_t)nfds, (int)wait_ms);
#endif
  caml_acquire_runtime_system();
  for (i = 0; i < nfds; i++)
    Field(v_revents, i) =
        Val_int((pfd[i].revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL))
                    ? 1
                    : 0);
  if (pfd != stack_pfd) free(pfd);
  if (r < 0)
    CAMLreturn(Val_int(errno == EINTR ? TW_ERR_INTR : TW_ERR_OTHER));
  CAMLreturn(Val_int(r));
}
