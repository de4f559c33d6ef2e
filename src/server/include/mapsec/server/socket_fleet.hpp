// Wall-clock serving fleets over the real-socket bearer.
//
// The sim LoadGenerator proves the protocol stack's behaviour; these
// fleets prove the same stack serves at wall-clock speed over real TCP.
// SocketServerFleet runs one shard per thread — each with its own
// MonotonicClock-driven reactor, buffer arena, session cache partition
// and SecureSessionServer, listening on its own loopback port (the
// accept-and-hand-off placement: a client's shard is shard_for(id), the
// same FNV routing the sharded sim tier uses, realised by port choice
// instead of a dispatcher). SocketClientFleet drives a block of
// SessionClients from one reactor thread, with seed derivation identical
// to the sim generator's — so a socket run's session outcomes (handshake
// mix, transcript digests, echo checks, conservation books) are directly
// comparable against the sim run for the same seed.
//
// Chaos hooks map the campaigns' bearer faults onto the real transport:
// reset_open_sockets() hard-RSTs every live connection on a shard,
// pause_accepts() lets the kernel accept queue overflow.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "mapsec/net/socket_bearer.hpp"
#include "mapsec/server/load_gen.hpp"
#include "mapsec/server/server.hpp"
#include "mapsec/server/session_cache.hpp"

namespace mapsec::server {

struct SocketFleetConfig {
  std::size_t shards = 1;
  net::SocketConfig socket;
  /// Arena slabs pre-reserved per shard; the report's
  /// zero_steady_state_alloc gate asserts traffic never grew past it.
  std::size_t reserve_slabs_per_shard = 64;
  std::uint64_t seed = 0x10ADCAFE;
  /// Monotonic clock origin; large values exercise the saturating
  /// timeout arithmetic at the far end of the timeline.
  net::SimTime clock_origin_us = 0;
};

class SocketServerFleet {
 public:
  struct ShardReport {
    ServerStats server;
    BoundedSessionCache::Stats cache;
    ArenaUsage arena;
    net::SocketStats sockets;
    std::uint64_t accepted = 0;
    bool conserved = false;
    /// Connection-table entries and pipeline SAs left at stop. Finished
    /// connections retire both, so a drained shard reports 0 and 0.
    std::size_t tracked_connections = 0;
    std::size_t live_sas = 0;
  };

  struct Report {
    std::vector<ShardReport> shards;
    ServerStats server;        // accumulated across shards
    net::SocketStats sockets;  // accumulated across shards
    ArenaUsage arena;          // accumulated across shards
    std::uint64_t accepted = 0;
    bool conserved = true;
    /// True iff no shard's arena allocated past its pre-reserve.
    bool zero_steady_state_alloc = true;
    std::size_t cache_state_bytes = 0;
    std::size_t ticket_state_bytes = 0;
  };

  /// Builds every shard's world (cache partitioned like ShardedServer)
  /// and binds the listeners on the constructing thread; start() hands
  /// each world to its own thread.
  SocketServerFleet(const SocketFleetConfig& config,
                    const ServerConfig& server_template,
                    const BoundedSessionCache::Config& cache_config);
  ~SocketServerFleet();

  SocketServerFleet(const SocketServerFleet&) = delete;
  SocketServerFleet& operator=(const SocketServerFleet&) = delete;

  /// All listeners bound successfully.
  bool ok() const;
  std::vector<std::uint16_t> ports() const;

  void start();
  /// Stop every shard thread, join, aggregate. Idempotent.
  Report stop();

  // ---- chaos hooks (thread-safe; block until the shard applied them) --
  void pause_accepts(std::size_t shard, bool paused);
  /// Hard-RST every live accepted connection on `shard`; returns how
  /// many were reset.
  std::size_t reset_open_sockets(std::size_t shard);
  std::uint64_t accepted_on(std::size_t shard);

 private:
  struct Shard;

  void run_shard(Shard& shard);

  SocketFleetConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool stopped_ = false;
  Report final_;
};

struct SocketLoadConfig {
  std::size_t num_clients = 50;
  /// Global id of this fleet's first client. A multi-process run gives
  /// each process a disjoint [first, first+num) block; seeds and shard
  /// routing use the global id, so the union of the processes' clients
  /// is exactly the sim generator's fleet.
  std::size_t first_client_id = 0;
  net::SimTime mean_interarrival_us = 1'000;
  bool poisson_arrivals = true;
  std::uint64_t seed = 0x10ADCAFE;
  net::SocketConfig socket;
  std::size_t reserve_slabs = 64;
  /// Wall-clock cap on the whole run; finishing under it is the normal
  /// case, hitting it leaves all_finished false in the report.
  net::SimTime wall_budget_us = 60'000'000;
  net::SimTime clock_origin_us = 0;
};

/// The tally (and its fleet_digest) covers this fleet's own clients.
struct SocketClientReport : FleetTally {
  std::uint64_t bearer_errors = 0;
  /// Per-client transcript digests in client order — the parent of a
  /// multi-process run concatenates the blocks (process order = id
  /// order) and folds them into the global fleet digest.
  std::vector<crypto::Bytes> client_digests;
  ArenaUsage arena;
  net::SocketStats sockets;
  bool all_finished = false;
  double wall_s = 0;
};

class SocketClientFleet {
 public:
  /// `server_template` supplies the engine profile the client-side
  /// record engine mirrors (as in the sim generator). `ports` are the
  /// server fleet's listeners; client `gid` connects to
  /// ports[shard_for(gid, ports.size())].
  SocketClientFleet(const SocketLoadConfig& load,
                    const ClientConfig& client_template,
                    const ServerConfig& server_template,
                    std::vector<std::uint16_t> ports);

  /// Drive the whole fleet to completion on the calling thread.
  SocketClientReport run();

 private:
  SocketLoadConfig load_;
  ClientConfig client_;
  ServerConfig server_;
  std::vector<std::uint16_t> ports_;
};

}  // namespace mapsec::server
