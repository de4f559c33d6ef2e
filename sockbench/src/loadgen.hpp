// Closed-loop session generator: kSlots SessionClients in flight on one
// reactor thread (the calling thread). A slot whose client finished gets
// its client destroyed and replaced by one with a fresh id, so the
// offered load is whatever the server sustains, not an arrival schedule.
// Slot i only takes ids that shard_for routes to shard i % shards, so
// every shard always serves the same share of the slots; otherwise which
// slots meet on a shard (two bulk streams, say) would be a lottery drawn
// anew with every id.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common.hpp"
#include "mapsec/crypto/rng.hpp"
#include "mapsec/engine/protocol_engine.hpp"
#include "mapsec/net/clock.hpp"
#include "mapsec/net/reactor.hpp"
#include "mapsec/net/socket_bearer.hpp"
#include "mapsec/server/client.hpp"
#include "mapsec/server/server.hpp"

namespace sockbench {

/// Outcome counts over a set of finished transactions.
struct Tally {
  std::uint64_t txns = 0;
  std::uint64_t sessions = 0;  // sessions attempted
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;    // gave up after the retry budget
  std::uint64_t echo_bad = 0;  // echo_ok == false
  std::uint64_t resumed = 0;
  std::uint64_t extra_attempts = 0;  // connection attempts beyond the first
  std::uint64_t bytes_echoed = 0;
  std::uint64_t hellos = 0;  // ServerHellos read off the wire
  std::uint64_t suite_mismatches = 0;
  std::uint64_t link_acks = 0;
  std::uint64_t link_segments = 0;
  std::uint64_t link_retransmits = 0;

  Tally& operator+=(const Tally& o);
};

/// A transaction span (one client's life), for the trace file.
struct TxnSpan {
  std::uint32_t gid = 0;
  bool bulk = false;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// The n-th connection this generator opened to `shard` carried client
/// `gid`; the server's n-th accept on that shard is the same connection.
struct ConnectRecord {
  std::uint32_t shard = 0;
  std::uint32_t ordinal = 0;
  std::uint32_t gid = 0;
};

/// A transaction that finished inside the measured window.
struct Finish {
  std::int64_t at_ns = 0;
  std::uint64_t sessions = 0;  // completed
  std::uint64_t bytes_echoed = 0;
};

struct GenResult {
  Tally window;  // transactions that finished inside the measured window
  Tally all;     // every transaction, warm-up and drain included
  std::vector<Finish> finishes;  // of the `window` transactions
  std::int64_t t0_ns = 0;  // measured window
  std::int64_t t1_ns = 0;
  // Short transactions finishing in the window: their lives, and each
  // session's connect to first application-data send.
  std::vector<double> txn_ms;
  std::vector<double> handshake_ms;
  double gen_cpu_s = 0;              // this thread's CPU over the window
  bool drained = false;  // every in-flight transaction finished after t1
  std::vector<TxnSpan> txns;  // filled when spans were requested
  std::vector<ConnectRecord> connects;

  double window_s() const { return static_cast<double>(t1_ns - t0_ns) / 1e9; }
};

class ClosedLoop {
 public:
  /// `client_template` carries the PKI trust anchors; `server_template`
  /// the engine profile the client-side record engine mirrors. Client
  /// `gid` dials ports[shard_for(gid, ports.size())] with seed
  /// fleet_client_seed(seed, gid).
  ClosedLoop(const Workload& workload,
             const mapsec::server::ClientConfig& client_template,
             const mapsec::server::ServerConfig& server_template,
             std::uint64_t seed, std::vector<std::uint16_t> ports,
             bool keep_spans);
  ~ClosedLoop();

  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Warm up, measure `seconds`, then stop refilling slots and wait for
  /// the in-flight transactions to finish. `on_edge(true)` runs as the
  /// measured window opens, `on_edge(false)` as it closes.
  GenResult run(double warmup_s, double seconds,
                const std::function<void(bool)>& on_edge = {});

 private:
  struct Slot;

  std::uint32_t take_id(std::size_t shard);
  void start_client(Slot& slot);
  void finish_client(Slot& slot, GenResult& result, bool in_window);
  std::unique_ptr<mapsec::net::ReliableLink> connect(Slot& slot,
                                                     std::uint32_t gid);

  const Workload& workload_;
  std::uint64_t seed_;
  std::vector<std::uint16_t> ports_;
  bool keep_spans_;
  mapsec::server::ClientConfig short_cfg_;
  mapsec::server::ClientConfig bulk_cfg_;
  mapsec::net::SocketConfig socket_cfg_;

  // Declaration order is teardown order in reverse: the slots (clients,
  // then their links' channels) go before the engine, arena and reactor
  // they borrow.
  mapsec::net::MonotonicClock clock_;
  mapsec::net::Reactor reactor_;
  mapsec::net::BufferArena arena_;
  mapsec::crypto::HmacDrbg engine_rng_;
  mapsec::engine::ProtocolEngine engine_;
  std::uint32_t next_gid_ = 0;
  std::vector<std::deque<std::uint32_t>> spare_ids_;  // per shard
  std::vector<std::uint32_t> connects_per_shard_;
  std::vector<ConnectRecord> connects_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace sockbench
