#include "mapsec/net/socket_bearer.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "mapsec/net/frame_codec.hpp"

namespace mapsec::net {

namespace {

constexpr std::size_t kMaxIov = 8;

std::string errno_string(int err) {
  char buf[128];
  // GNU strerror_r returns the message pointer (possibly not buf).
  return std::string(strerror_r(err, buf, sizeof(buf)));
}

int make_tcp_socket() {
  return socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

void apply_socket_options(int fd, const SocketConfig& config) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (config.sndbuf_bytes > 0) {
    setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config.sndbuf_bytes,
               sizeof(config.sndbuf_bytes));
  }
  if (config.rcvbuf_bytes > 0) {
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &config.rcvbuf_bytes,
               sizeof(config.rcvbuf_bytes));
  }
}

bool probe_loopback_sockets() {
  int lfd = make_tcp_socket();
  if (lfd < 0) return false;
  sockaddr_in addr = loopback_addr(0);
  bool ok = false;
  int cfd = -1;
  int afd = -1;
  do {
    if (bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) break;
    if (listen(lfd, 1) != 0) break;
    socklen_t len = sizeof(addr);
    if (getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) break;
    cfd = make_tcp_socket();
    if (cfd < 0) break;
    int rc = connect(cfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) break;
    // Loopback connects complete by the time accept() is retried a few
    // times; poll briefly rather than pulling in a full event loop.
    for (int i = 0; i < 100 && afd < 0; ++i) {
      afd = accept4(lfd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (afd < 0 && errno != EAGAIN && errno != EWOULDBLOCK) break;
      if (afd < 0) usleep(1000);
    }
    ok = afd >= 0;
  } while (false);
  if (afd >= 0) close(afd);
  if (cfd >= 0) close(cfd);
  close(lfd);
  return ok;
}

}  // namespace

bool sockets_available() {
  static const bool available = probe_loopback_sockets();
  return available;
}

SocketEndpoint::SocketEndpoint(Reactor& reactor, BufferArena& arena, int fd,
                               const SocketConfig& config, bool connecting)
    : reactor_(reactor),
      config_(config),
      fd_(fd),
      rx_q_(arena),
      tx_q_(arena),
      connecting_(connecting) {
  reactor_.add_fd(fd_, connecting_ ? EPOLLOUT : EPOLLIN,
                  [this](std::uint32_t mask) { on_event(mask); });
}

SocketEndpoint::~SocketEndpoint() { close_quiet(); }

void SocketEndpoint::close_quiet() {
  if (!open_) return;
  open_ = false;
  teardown();
}

void SocketEndpoint::reset() {
  if (!open_) return;
  linger hard{};
  hard.l_onoff = 1;
  hard.l_linger = 0;
  setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  fail("connection reset (injected)");
}

void SocketEndpoint::teardown() {
  reactor_.remove_fd(fd_);
  if (in_flush_list_) {
    reactor_.cancel_flush(this);
    in_flush_list_ = false;
  }
  close(fd_);
  fd_ = -1;
  rx_q_.release();
  tx_q_.release();
  receiver_ = nullptr;
}

void SocketEndpoint::fail(const std::string& reason) {
  if (failing_ || !open_) return;
  failing_ = true;
  open_ = false;
  ++stats_.failures;
  teardown();
  // Notify after teardown so subscribers observe a dead endpoint. The
  // call stack may still return through this object, so subscribers must
  // not destroy it synchronously — owners mark the endpoint for pruning
  // and reap it between reactor turns.
  auto tx_err = std::move(tx_half_.on_channel_error_);
  auto rx_err = std::move(rx_half_.on_channel_error_);
  auto own_err = std::move(on_error_);
  if (tx_err) tx_err(reason);
  if (rx_err) rx_err(reason);
  if (own_err) own_err(reason);
}

void SocketEndpoint::set_receiver(
    std::function<void(crypto::ConstBytes)> on_frame) {
  receiver_ = std::move(on_frame);
  if (!open_) return;
  if (receiver_) {
    if (reads_paused_) {
      reads_paused_ = false;
      update_interest();
    }
    if (!parsing_) parse_frames();
  }
}

void SocketEndpoint::send_frame(crypto::ConstBytes payload) {
  if (!open_) return;
  if (payload.size() > config_.max_frame_bytes) {
    fail("outbound frame length " + std::to_string(payload.size()) +
         " exceeds bound");
    return;
  }
  std::uint8_t header[FrameCodec::kHeaderBytes];
  FrameCodec::encode_header(static_cast<std::uint32_t>(payload.size()),
                            header);
  tx_q_.append({header, FrameCodec::kHeaderBytes});
  tx_q_.append(payload);
  ++stats_.frames_sent;
  if (tx_q_.slabs_held() > config_.max_tx_slabs) {
    fail("tx backlog overflow");
    return;
  }
  if (!in_flush_list_ && !connecting_ && !want_write_) {
    in_flush_list_ = true;
    reactor_.defer_flush(this);
  }
}

void SocketEndpoint::flush_now() {
  in_flush_list_ = false;
  if (!open_ || connecting_) return;
  while (!tx_q_.empty()) {
    IoSlice slices[kMaxIov];
    std::size_t count = tx_q_.gather(slices, kMaxIov);
    iovec iov[kMaxIov];
    std::size_t total = 0;
    for (std::size_t i = 0; i < count; ++i) {
      iov[i].iov_base = slices[i].data;
      iov[i].iov_len = slices[i].len;
      total += slices[i].len;
    }
    // sendmsg over the same iovec, so the gather is one syscall as with
    // writev, but MSG_NOSIGNAL turns a write to a reset peer into EPIPE
    // on this connection instead of a process-killing SIGPIPE.
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    ssize_t n = sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        ++stats_.eagain_writes;
        if (!want_write_) {
          want_write_ = true;
          update_interest();
        }
        return;
      }
      fail("sendmsg: " + errno_string(errno));
      return;
    }
    ++stats_.writev_calls;
    stats_.bytes_sent += static_cast<std::uint64_t>(n);
    tx_q_.consume(static_cast<std::size_t>(n));
    if (static_cast<std::size_t>(n) < total) {
      ++stats_.partial_writes;
      if (!want_write_) {
        want_write_ = true;
        update_interest();
      }
      return;
    }
  }
  if (want_write_) {
    want_write_ = false;
    update_interest();
  }
}

void SocketEndpoint::update_interest() {
  std::uint32_t events = 0;
  if (connecting_) {
    events = EPOLLOUT;
  } else {
    if (!reads_paused_) events |= EPOLLIN;
    if (want_write_) events |= EPOLLOUT;
  }
  reactor_.modify_fd(fd_, events);
}

void SocketEndpoint::on_event(std::uint32_t mask) {
  if (!open_) return;
  if (connecting_) {
    finish_connect(mask);
    return;
  }
  if (mask & EPOLLIN) handle_readable((mask & (EPOLLERR | EPOLLHUP)) != 0);
  if (!open_) return;
  if (mask & EPOLLOUT) flush_now();
  if (!open_) return;
  if (mask & (EPOLLERR | EPOLLHUP)) {
    // Drained what EPOLLIN offered; a lingering ERR/HUP means the peer is
    // gone. A detached receiver treats it as an orderly end of life.
    if (receiver_) {
      fail("peer hung up");
    } else {
      close_quiet();
    }
  }
}

void SocketEndpoint::finish_connect(std::uint32_t mask) {
  if ((mask & (EPOLLOUT | EPOLLERR | EPOLLHUP)) == 0) return;
  int err = 0;
  socklen_t len = sizeof(err);
  if (getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0) err = errno;
  if (err != 0) {
    fail("connect: " + errno_string(err));
    return;
  }
  connecting_ = false;
  update_interest();
  if (!tx_q_.empty()) flush_now();
}

void SocketEndpoint::handle_readable(bool to_eof) {
  for (;;) {
    if (reads_paused_) return;
    IoSlice regions[2];
    std::size_t count = rx_q_.writable(regions);
    iovec iov[2];
    std::size_t room = 0;
    for (std::size_t i = 0; i < count; ++i) {
      iov[i].iov_base = regions[i].data;
      iov[i].iov_len = regions[i].len;
      room += regions[i].len;
    }
    ssize_t n = readv(fd_, iov, static_cast<int>(count));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      fail("readv: " + errno_string(errno));
      return;
    }
    if (n == 0) {
      // EOF. With a receiver attached this is a failure the protocol
      // must hear about; detached (link already shut down) it is just
      // the connection winding down.
      if (receiver_) {
        fail("peer closed connection");
      } else {
        close_quiet();
      }
      return;
    }
    ++stats_.readv_calls;
    stats_.bytes_received += static_cast<std::uint64_t>(n);
    rx_q_.commit(static_cast<std::size_t>(n));
    parse_frames();
    if (!open_) return;
    // A short read took everything the socket held, so another readv
    // would only say EAGAIN; level-triggered epoll reports whatever
    // arrives next. After a hangup, read on to the EOF or error instead.
    if (!to_eof && static_cast<std::size_t>(n) < room) return;
  }
}

void SocketEndpoint::parse_frames() {
  parsing_ = true;
  while (open_ && receiver_) {
    std::uint8_t header[FrameCodec::kHeaderBytes];
    if (rx_q_.peek(header, FrameCodec::kHeaderBytes) <
        FrameCodec::kHeaderBytes) {
      break;
    }
    FrameCodec::Head head = FrameCodec::inspect(
        header, FrameCodec::kHeaderBytes, config_.max_frame_bytes);
    if (head.status == FrameCodec::Status::kOversize) {
      parsing_ = false;
      fail("inbound frame length " + std::to_string(head.payload_len) +
           " exceeds bound");
      return;
    }
    std::size_t total = FrameCodec::kHeaderBytes + head.payload_len;
    if (rx_q_.size() < total) break;
    if (scratch_.size() < head.payload_len) scratch_.resize(head.payload_len);
    const std::uint8_t* frame = rx_q_.view(FrameCodec::kHeaderBytes,
                                           head.payload_len, scratch_.data());
    ++stats_.frames_received;
    receiver_(crypto::ConstBytes(frame, head.payload_len));
    if (!open_) {
      parsing_ = false;
      return;
    }
    rx_q_.consume(total);
  }
  parsing_ = false;
  if (open_ && !receiver_ && rx_q_.slabs_held() >= config_.max_rx_slabs &&
      !reads_paused_) {
    // Nobody is decoding; stop pulling bytes so the backlog stays bounded
    // (TCP flow control pushes back on the peer).
    reads_paused_ = true;
    update_interest();
  }
}

SocketListener::SocketListener(Reactor& reactor, BufferArena& arena,
                               const SocketConfig& config, std::uint16_t port)
    : reactor_(reactor), arena_(arena), config_(config) {
  int fd = make_tcp_socket();
  if (fd < 0) return;
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback_addr(port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, config_.listen_backlog) != 0) {
    close(fd);
    return;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close(fd);
    return;
  }
  fd_ = fd;
  port_ = ntohs(addr.sin_port);
  reactor_.add_fd(fd_, EPOLLIN, [this](std::uint32_t) { handle_acceptable(); });
}

SocketListener::~SocketListener() {
  if (fd_ >= 0) {
    reactor_.remove_fd(fd_);
    close(fd_);
  }
}

void SocketListener::set_paused(bool paused) {
  if (fd_ < 0 || paused == paused_) return;
  paused_ = paused;
  reactor_.modify_fd(fd_, paused_ ? 0u : static_cast<std::uint32_t>(EPOLLIN));
}

void SocketListener::handle_acceptable() {
  for (;;) {
    int fd = accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept error: epoll will re-report
    }
    ++accepted_;
    apply_socket_options(fd, config_);
    auto endpoint =
        std::make_unique<SocketEndpoint>(reactor_, arena_, fd, config_);
    if (on_accept_) {
      on_accept_(std::move(endpoint));
    }
    // No handler installed: endpoint destructs, connection closes.
  }
}

std::unique_ptr<SocketEndpoint> connect_endpoint(Reactor& reactor,
                                                 BufferArena& arena,
                                                 const SocketConfig& config,
                                                 std::uint16_t port) {
  int fd = make_tcp_socket();
  if (fd < 0) return nullptr;
  apply_socket_options(fd, config);
  sockaddr_in addr = loopback_addr(port);
  int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  bool pending = rc != 0 && errno == EINPROGRESS;
  if (rc != 0 && !pending) {
    // Immediate refusal still yields an endpoint so the failure flows
    // through the normal error path once the reactor sees the fd.
    pending = true;
  }
  return std::make_unique<SocketEndpoint>(reactor, arena, fd, config,
                                          pending);
}

}  // namespace mapsec::net
