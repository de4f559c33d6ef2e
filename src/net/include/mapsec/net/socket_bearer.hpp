// Real-socket bearer: nonblocking loopback TCP under the session stack.
//
// Everything above the Channel seam — ReliableLink, the handshake state
// machines, SecureSessionServer, the chaos campaigns — was built against
// simulated bearers. This file supplies the other implementation of the
// same seam: a SocketEndpoint wraps one connected TCP fd and exposes two
// Channel facades (tx/rx) that frame records with FrameCodec, queue bytes
// in arena-backed SlabQueues, and move them with vectored syscalls —
// one gathering sendmsg(MSG_NOSIGNAL) submits every record queued during
// a reactor round, readv scatters into pooled slabs. A SocketListener accepts
// on 127.0.0.1 and hands fresh endpoints to the shard that owns the
// reactor. Steady state allocates nothing on the record path: all byte
// storage is borrowed from the shard's BufferArena and recycled on
// connection close.
//
// Fault hooks for chaos campaigns: reset() arms SO_LINGER{0} and closes,
// so the peer sees a hard RST mid-whatever; SocketListener::set_paused()
// stops servicing accepts so the kernel backlog overflows like a stalled
// appliance. Both map the campaigns' simulated bearer faults onto the
// real transport.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "mapsec/crypto/bytes.hpp"
#include "mapsec/net/buffer_arena.hpp"
#include "mapsec/net/channel.hpp"
#include "mapsec/net/reactor.hpp"

namespace mapsec::net {

struct SocketConfig {
  /// Largest frame payload accepted or sent; mirrors ReliableLink's
  /// max_message_size so an oversize length prefix dies at the bearer
  /// before any buffer is sized by it.
  std::size_t max_frame_bytes = 1 << 20;
  std::size_t max_tx_slabs = 256;  // per-connection queued-output bound
  std::size_t max_rx_slabs = 256;  // per-connection inbound backlog bound
  int listen_backlog = 64;
  int sndbuf_bytes = 0;  // 0 = kernel default (tests shrink for backpressure)
  int rcvbuf_bytes = 0;
};

struct SocketStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  /// Gathering sends that moved bytes. The sends are sendmsg calls (for
  /// MSG_NOSIGNAL); the name is kept because reports read it.
  std::uint64_t writev_calls = 0;
  std::uint64_t readv_calls = 0;
  std::uint64_t partial_writes = 0;  // a send moved some but not all bytes
  std::uint64_t eagain_writes = 0;   // a send found the socket full
  std::uint64_t failures = 0;        // terminal errors (reset, oversize, ...)

  SocketStats& operator+=(const SocketStats& o) {
    frames_sent += o.frames_sent;
    frames_received += o.frames_received;
    bytes_sent += o.bytes_sent;
    bytes_received += o.bytes_received;
    writev_calls += o.writev_calls;
    readv_calls += o.readv_calls;
    partial_writes += o.partial_writes;
    eagain_writes += o.eagain_writes;
    failures += o.failures;
    return *this;
  }
};

/// True iff this host can bind/connect loopback TCP (probed once).
/// Tests and CI stages gate on it so sandboxes without network stacks
/// skip visibly instead of failing.
bool sockets_available();

/// One connected TCP socket presented as a pair of Channel halves.
/// Single-threaded: all methods (and the fd callbacks) run on the owning
/// reactor's thread.
class SocketEndpoint final : public Flushable {
 public:
  /// Wrap an already-connected (or connect-in-progress) nonblocking fd.
  SocketEndpoint(Reactor& reactor, BufferArena& arena, int fd,
                 const SocketConfig& config, bool connecting = false);
  ~SocketEndpoint() override;

  SocketEndpoint(const SocketEndpoint&) = delete;
  SocketEndpoint& operator=(const SocketEndpoint&) = delete;

  /// Outbound half: send() frames onto the socket.
  Channel& tx() { return tx_half_; }
  /// Inbound half: set_receiver() gets each decoded frame.
  Channel& rx() { return rx_half_; }

  bool open() const { return open_; }
  const SocketStats& stats() const { return stats_; }

  /// Endpoint-level death notification (in addition to any Channel-half
  /// subscribers) — the fleet uses it to prune and account. Runs with
  /// the endpoint still on the stack: mark for pruning, never delete
  /// the endpoint from inside the callback.
  void set_on_error(std::function<void(const std::string&)> on_error) {
    on_error_ = std::move(on_error);
  }

  /// Close without notifying anyone (orderly local teardown).
  void close_quiet();

  /// Chaos hook: SO_LINGER{0} + close, so the peer takes a hard RST.
  /// Local subscribers are notified with an "injected reset" failure.
  void reset();

  void flush_now() override;

 private:
  class Half final : public Channel {
   public:
    explicit Half(SocketEndpoint* owner) : owner_(owner) {}
    void set_receiver(
        std::function<void(crypto::ConstBytes)> on_frame) override {
      owner_->set_receiver(std::move(on_frame));
    }
    void send(crypto::ConstBytes frame) override {
      owner_->send_frame(frame);
    }
    void set_on_channel_error(
        std::function<void(const std::string&)> on_error) override {
      on_channel_error_ = std::move(on_error);
    }

   private:
    friend class SocketEndpoint;
    SocketEndpoint* owner_;
    std::function<void(const std::string&)> on_channel_error_;
  };

  void set_receiver(std::function<void(crypto::ConstBytes)> on_frame);
  void send_frame(crypto::ConstBytes payload);
  void on_event(std::uint32_t mask);
  void finish_connect(std::uint32_t mask);
  /// Read and parse until a short read, or until EOF or an error when
  /// `to_eof` (the event reported a hangup).
  void handle_readable(bool to_eof);
  void parse_frames();
  void update_interest();
  void fail(const std::string& reason);
  void teardown();

  Reactor& reactor_;
  SocketConfig config_;
  int fd_;
  Half tx_half_{this};
  Half rx_half_{this};
  SlabQueue rx_q_;
  SlabQueue tx_q_;
  crypto::Bytes scratch_;  // frame reassembly across slab boundaries
  std::function<void(crypto::ConstBytes)> receiver_;
  std::function<void(const std::string&)> on_error_;
  SocketStats stats_;
  bool open_ = true;
  bool connecting_;
  bool want_write_ = false;   // EPOLLOUT armed (backpressure)
  bool in_flush_list_ = false;
  bool reads_paused_ = false;  // receiver detached and backlog at watermark
  bool parsing_ = false;
  bool failing_ = false;
};

/// Accepting socket on 127.0.0.1:<port>. Each accepted connection is
/// wrapped in a SocketEndpoint and handed to the on_accept callback on
/// the reactor thread.
class SocketListener {
 public:
  /// `port` 0 binds an ephemeral port (read it back via port()).
  SocketListener(Reactor& reactor, BufferArena& arena,
                 const SocketConfig& config, std::uint16_t port);
  ~SocketListener();

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  bool ok() const { return fd_ >= 0; }
  std::uint16_t port() const { return port_; }
  std::uint64_t accepted() const { return accepted_; }

  void set_on_accept(
      std::function<void(std::unique_ptr<SocketEndpoint>)> on_accept) {
    on_accept_ = std::move(on_accept);
  }

  /// Chaos hook: while paused the reactor ignores the listen fd, the
  /// kernel backlog fills, and further SYNs overflow the accept queue.
  void set_paused(bool paused);
  bool paused() const { return paused_; }

 private:
  void handle_acceptable();

  Reactor& reactor_;
  BufferArena& arena_;
  SocketConfig config_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint64_t accepted_ = 0;
  bool paused_ = false;
  std::function<void(std::unique_ptr<SocketEndpoint>)> on_accept_;
};

/// Begin a nonblocking connect to 127.0.0.1:`port`. The endpoint flushes
/// queued frames once the connect completes; a refused/failed connect
/// surfaces through the endpoint's error callbacks. Returns nullptr only
/// if a socket cannot be created at all.
std::unique_ptr<SocketEndpoint> connect_endpoint(Reactor& reactor,
                                                 BufferArena& arena,
                                                 const SocketConfig& config,
                                                 std::uint16_t port);

}  // namespace mapsec::net
