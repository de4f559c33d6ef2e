#include "mapsec/server/socket_fleet.hpp"

#include <chrono>
#include <future>
#include <utility>

#include "mapsec/engine/protocol_engine.hpp"
#include "mapsec/server/client.hpp"
#include "mapsec/server/sharded_server.hpp"

namespace mapsec::server {

namespace {

ArenaUsage arena_usage(const net::BufferArena& arena, std::size_t reserved) {
  ArenaUsage usage;
  usage.allocations = arena.stats().allocations;
  usage.acquires = arena.stats().acquires;
  usage.recycles = arena.stats().recycles;
  usage.peak_in_use = arena.stats().peak_in_use;
  usage.reserved = reserved;
  return usage;
}

}  // namespace

// ---- SocketServerFleet ----------------------------------------------------

struct SocketServerFleet::Shard {
  // Declaration order is teardown order in reverse: the server (whose
  // connection links reference endpoint channel halves) must die before
  // the endpoints, the endpoints before the arena and reactor they
  // borrow from.
  std::size_t index = 0;
  net::MonotonicClock clock;
  net::Reactor reactor;
  net::BufferArena arena;
  std::unique_ptr<crypto::HmacDrbg> rng;
  std::unique_ptr<BoundedSessionCache> cache;
  std::unique_ptr<net::SocketListener> listener;
  std::vector<std::unique_ptr<net::SocketEndpoint>> endpoints;
  net::SocketStats closed_stats;  // accumulated from swept endpoints
  std::unique_ptr<SecureSessionServer> server;
  std::thread thread;

  explicit Shard(net::SimTime origin_us)
      : clock(origin_us), reactor(clock) {}

  void sweep() {
    // A closed endpoint's link has already failed or detached (bearer
    // errors reach the link before the endpoint reports closed), so the
    // endpoint can be reclaimed without dangling the connection.
    for (auto it = endpoints.begin(); it != endpoints.end();) {
      if (!(*it)->open()) {
        closed_stats += (*it)->stats();
        it = endpoints.erase(it);
      } else {
        ++it;
      }
    }
  }
};

SocketServerFleet::SocketServerFleet(
    const SocketFleetConfig& config, const ServerConfig& server_template,
    const BoundedSessionCache::Config& cache_config)
    : config_(config) {
  if (config_.shards == 0) config_.shards = 1;

  // Partition the cache budget exactly like the sharded sim tier.
  BoundedSessionCache::Config part = cache_config;
  if (part.capacity > 0)
    part.capacity = (part.capacity + config_.shards - 1) / config_.shards;

  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<Shard>(config_.clock_origin_us);
    shard->index = s;
    shard->arena.reserve(config_.reserve_slabs_per_shard);
    shard->rng = std::make_unique<crypto::HmacDrbg>(
        fleet_server_seed(config_.seed) + s);
    shard->cache =
        std::make_unique<BoundedSessionCache>(shard->reactor.queue(), part);
    ServerConfig cfg = server_template;
    cfg.handshake.rng = shard->rng.get();
    shard->server = std::make_unique<SecureSessionServer>(
        shard->reactor.queue(), std::move(cfg), shard->cache.get());
    shard->listener = std::make_unique<net::SocketListener>(
        shard->reactor, shard->arena, config_.socket, /*port=*/0);
    Shard* sh = shard.get();
    shard->listener->set_on_accept(
        [sh](std::unique_ptr<net::SocketEndpoint> ep) {
          net::SocketEndpoint* raw = ep.get();
          sh->server->accept(raw->tx(), raw->rx());
          sh->endpoints.push_back(std::move(ep));
        });
    shards_.push_back(std::move(shard));
  }
}

SocketServerFleet::~SocketServerFleet() { stop(); }

bool SocketServerFleet::ok() const {
  for (const auto& shard : shards_)
    if (!shard->listener->ok()) return false;
  return true;
}

std::vector<std::uint16_t> SocketServerFleet::ports() const {
  std::vector<std::uint16_t> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->listener->port());
  return out;
}

void SocketServerFleet::start() {
  if (started_) return;
  started_ = true;
  // The worlds were fully built on this thread before the launches, so
  // the thread start is the happens-before edge handing each world over.
  for (auto& shard : shards_) {
    Shard* sh = shard.get();
    sh->thread = std::thread([this, sh] { run_shard(*sh); });
  }
}

void SocketServerFleet::run_shard(Shard& shard) {
  while (!stop_.load(std::memory_order_acquire)) {
    shard.reactor.poll(5'000);
    shard.sweep();
  }
  // Drain grace: a client that already finished (and closed its socket)
  // may still have final frames — link-layer acks the server never
  // needed — sitting in this side's kernel receive buffer. Keep polling
  // until every accepted connection resolves to EOF/close or the grace
  // expires, so the cross-side conservation books (client bytes_sent ==
  // server bytes_received) account for the whole stream instead of
  // racing the last readv. Connections a peer holds open just run out
  // the bounded grace.
  const auto grace_end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (!shard.endpoints.empty() &&
         std::chrono::steady_clock::now() < grace_end) {
    shard.reactor.poll(5'000);
    shard.sweep();
  }
}

SocketServerFleet::Report SocketServerFleet::stop() {
  if (stopped_) return final_;
  stopped_ = true;
  if (started_) {
    stop_.store(true, std::memory_order_release);
    for (auto& shard : shards_) shard->reactor.post([] {});
    for (auto& shard : shards_)
      if (shard->thread.joinable()) shard->thread.join();
  }

  Report report;
  for (auto& shard : shards_) {
    ShardReport sr;
    sr.server = shard->server->stats();
    sr.cache = shard->cache->stats();
    sr.arena = arena_usage(shard->arena, config_.reserve_slabs_per_shard);
    sr.sockets = shard->closed_stats;
    for (const auto& ep : shard->endpoints) sr.sockets += ep->stats();
    sr.accepted = shard->listener->accepted();
    sr.conserved = shard->server->stats_conserved();
    sr.tracked_connections = shard->server->tracked_connections();
    sr.live_sas = shard->server->pipeline().sa_count();

    report.server += sr.server;
    report.sockets += sr.sockets;
    report.arena += sr.arena;
    report.accepted += sr.accepted;
    report.conserved = report.conserved && sr.conserved;
    report.zero_steady_state_alloc =
        report.zero_steady_state_alloc &&
        sr.arena.allocations == sr.arena.reserved;
    report.cache_state_bytes += shard->cache->resumption_state_bytes();
    report.ticket_state_bytes += shard->server->ticket_state_bytes();
    report.shards.push_back(std::move(sr));
  }
  final_ = report;
  return final_;
}

void SocketServerFleet::pause_accepts(std::size_t shard, bool paused) {
  Shard& sh = *shards_[shard];
  if (!started_ || stopped_) {
    sh.listener->set_paused(paused);
    return;
  }
  std::promise<void> done;
  sh.reactor.post([&sh, paused, &done] {
    sh.listener->set_paused(paused);
    done.set_value();
  });
  done.get_future().wait();
}

std::size_t SocketServerFleet::reset_open_sockets(std::size_t shard) {
  Shard& sh = *shards_[shard];
  std::promise<std::size_t> count;
  auto reset_all = [&sh, &count] {
    std::size_t n = 0;
    for (auto& ep : sh.endpoints) {
      if (ep->open()) {
        ep->reset();
        ++n;
      }
    }
    count.set_value(n);
  };
  if (!started_ || stopped_) {
    reset_all();
  } else {
    sh.reactor.post(reset_all);
  }
  return count.get_future().get();
}

std::uint64_t SocketServerFleet::accepted_on(std::size_t shard) {
  Shard& sh = *shards_[shard];
  if (!started_ || stopped_) return sh.listener->accepted();
  std::promise<std::uint64_t> count;
  sh.reactor.post([&sh, &count] { count.set_value(sh.listener->accepted()); });
  return count.get_future().get();
}

// ---- SocketClientFleet ----------------------------------------------------

SocketClientFleet::SocketClientFleet(const SocketLoadConfig& load,
                                     const ClientConfig& client_template,
                                     const ServerConfig& server_template,
                                     std::vector<std::uint16_t> ports)
    : load_(load),
      client_(client_template),
      server_(server_template),
      ports_(std::move(ports)) {}

SocketClientReport SocketClientFleet::run() {
  // Declaration order = reverse teardown order: clients (whose links
  // reference endpoint halves) must unwind before the endpoints, the
  // endpoints before the arena and reactor.
  net::MonotonicClock clock(load_.clock_origin_us);
  net::Reactor reactor(clock);
  net::BufferArena arena;
  arena.reserve(load_.reserve_slabs);

  crypto::HmacDrbg engine_rng(fleet_engine_seed(load_.seed));
  engine::ProtocolEngine engine(server_.engine_profile, &engine_rng);
  engine.load_program("ccmp-in", engine::ccmp_inbound_program());

  const std::size_t n = load_.num_clients;
  std::vector<std::unique_ptr<net::SocketEndpoint>> slots(n);
  // Replaced endpoints park here until the clients (and their possibly
  // still-attached old links) are gone.
  std::vector<std::unique_ptr<net::SocketEndpoint>> graveyard;
  std::vector<std::unique_ptr<SessionClient>> clients;
  clients.reserve(n);

  SocketClientReport report;

  // The sim fleet's arrival schedule, cut to our block of global ids.
  const std::vector<net::SimTime> arrivals =
      fleet_arrivals(load_.seed, load_.first_client_id, n,
                     load_.mean_interarrival_us, load_.poisson_arrivals);

  std::size_t finished = 0;
  const net::SimTime start_us = reactor.queue().now();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t gid = load_.first_client_id + i;
    auto client = std::make_unique<SessionClient>(
        reactor.queue(), client_, static_cast<std::uint32_t>(gid), engine,
        fleet_client_seed(load_.seed, gid));
    client->set_on_finished([&finished](SessionClient&) { ++finished; });
    client->set_connect([this, &reactor, &arena, &slots, &graveyard, &report,
                         i, gid](SessionClient&) {
      if (slots[i]) {
        slots[i]->close_quiet();
        graveyard.push_back(std::move(slots[i]));
      }
      const std::size_t shard =
          shard_for(static_cast<std::uint32_t>(gid), ports_.size());
      auto ep = net::connect_endpoint(reactor, arena, load_.socket,
                                      ports_[shard]);
      ep->set_on_error(
          [&report](const std::string&) { ++report.bearer_errors; });
      auto link = std::make_unique<net::ReliableLink>(
          reactor.queue(), ep->tx(), ep->rx(), client_.link);
      slots[i] = std::move(ep);
      return link;
    });
    reactor.queue().schedule_at(net::sat_add_time(start_us, arrivals[i]),
                                [c = client.get()] { c->start(); });
    clients.push_back(std::move(client));
  }

  report.all_finished = reactor.run_until(
      [&finished, n] { return finished == n; }, load_.wall_budget_us);
  report.wall_s =
      static_cast<double>(reactor.queue().now() - start_us) / 1e6;

  // Snapshot while everything is still alive.
  static_cast<FleetTally&>(report) = tally_fleet(clients);
  for (const auto& client : clients)
    report.client_digests.push_back(client->transcript_digest());
  for (const auto& ep : graveyard) report.sockets += ep->stats();
  for (const auto& ep : slots)
    if (ep) report.sockets += ep->stats();
  report.arena = arena_usage(arena, load_.reserve_slabs);
  return report;
}

}  // namespace mapsec::server
