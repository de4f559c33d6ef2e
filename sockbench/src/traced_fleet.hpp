// Server side of the benchmark: totals shared by both runs, and the
// traced shards.
//
// The untraced run serves through server::SocketServerFleet unchanged.
// The traced run builds the same shard from the same public parts
// (Reactor, BufferArena, SocketListener, BoundedSessionCache,
// SecureSessionServer and the poll-then-sweep loop) and hands the server
// decorated Channel halves and a decorated SessionCache, so spans are
// taken at the server's seams without touching its code. Spans stay in
// memory until the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "mapsec/net/socket_bearer.hpp"
#include "mapsec/server/server.hpp"
#include "mapsec/server/session_cache.hpp"
#include "mapsec/server/socket_fleet.hpp"

namespace sockbench {

/// The server-side counts the metrics and gates read, summed over shards.
struct ServerTotals {
  std::uint64_t accepted = 0;
  std::uint64_t handshakes_completed = 0;
  std::uint64_t resumed = 0;
  std::uint64_t rsa_private_ops = 0;
  std::uint64_t tickets_issued = 0;
  std::uint64_t ticket_resumptions = 0;
  std::uint64_t bulk_messages = 0;
  mapsec::net::SocketStats sockets;
  std::uint64_t arena_allocations = 0;
  std::uint64_t arena_reserved = 0;
  bool conserved = true;

  void add(const mapsec::server::ServerStats& s);
};

ServerTotals totals_of(const mapsec::server::SocketServerFleet::Report& r);

enum class SpanKind : std::uint8_t { kSession, kRx, kTx, kCache };

/// One span. `conn` is the shard-local accept ordinal; `parent` is 1 +
/// the index of the enclosing rx_handler span in the same shard's log
/// (0: none).
struct Span {
  SpanKind kind = SpanKind::kRx;
  bool flag = false;  // kRx: the handler sent a data frame; kCache: hit
  bool lookup = false;  // kCache: lookup (else store)
  std::uint32_t conn = 0;
  std::uint32_t parent = 0;
  std::uint32_t bytes = 0;  // frame size (kRx, kTx)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Cumulative shard-thread clocks, summed over shards.
struct ShardClocks {
  std::int64_t cpu_ns = 0;
  std::int64_t wall_ns = 0;
  std::int64_t poll_cpu_ns = 0;
  std::int64_t poll_wall_ns = 0;
};

class TracedFleet {
 public:
  struct Report {
    ServerTotals totals;
    std::vector<std::vector<Span>> spans;  // per shard
  };

  TracedFleet(const mapsec::server::SocketFleetConfig& config,
              const mapsec::server::ServerConfig& server_template,
              const mapsec::server::BoundedSessionCache::Config& cache_config);
  ~TracedFleet();

  TracedFleet(const TracedFleet&) = delete;
  TracedFleet& operator=(const TracedFleet&) = delete;

  bool ok() const;
  std::vector<std::uint16_t> ports() const;
  void start();
  /// Thread-safe snapshot of the shard clocks.
  ShardClocks clocks() const;
  /// Stop and join every shard, then hand over the totals and span logs.
  Report stop();

 private:
  struct Shard;
  void run_shard(Shard& shard);

  mapsec::server::SocketFleetConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace sockbench
