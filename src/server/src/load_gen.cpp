#include "mapsec/server/load_gen.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "mapsec/crypto/sha256.hpp"
#include "mapsec/net/sim_clock.hpp"
#include "mapsec/server/supervisor.hpp"

namespace mapsec::server {

net::SimTime load_exponential_us(crypto::Rng& rng, double mean_us) {
  const double u =
      (static_cast<double>(rng.next_u32()) + 1.0) / 4294967297.0;
  return static_cast<net::SimTime>(-mean_us * std::log(u));
}

std::uint64_t load_sub_seed(std::uint64_t seed, std::uint64_t n) {
  return seed ^ (n * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull);
}

std::vector<net::SimTime> fleet_arrivals(std::uint64_t seed,
                                         std::size_t first, std::size_t count,
                                         net::SimTime mean_interarrival_us,
                                         bool poisson) {
  crypto::HmacDrbg rng(fleet_arrival_seed(seed));
  std::vector<net::SimTime> out;
  out.reserve(count);
  net::SimTime arrival = 0;
  for (std::size_t g = 0; g < first + count; ++g) {
    if (g >= first) out.push_back(arrival);
    arrival += poisson ? load_exponential_us(
                             rng, static_cast<double>(mean_interarrival_us))
                       : mean_interarrival_us;
  }
  return out;
}

crypto::Bytes fold_fleet_digest(
    const std::vector<crypto::ConstBytes>& lanes) {
  crypto::Sha256 fold;
  std::uint8_t lane_digest[crypto::Sha256::kDigestSize];
  for (const crypto::ConstBytes lane : lanes) {
    crypto::Sha256::hash_into(lane, lane_digest);
    fold.update(lane_digest);
  }
  return fold.finish();
}

FleetTally tally_fleet(
    const std::vector<std::unique_ptr<SessionClient>>& clients) {
  FleetTally tally;
  std::vector<crypto::ConstBytes> lanes;
  lanes.reserve(clients.size());
  for (const auto& client : clients) {
    for (const SessionRecord& record : client->sessions()) {
      ++tally.sessions_attempted;
      tally.connection_attempts += static_cast<std::size_t>(record.attempts);
      tally.refused_attempts +=
          static_cast<std::size_t>(record.refused_attempts);
      if (record.completed) ++tally.sessions_completed;
      if (record.failed) ++tally.sessions_failed;
      if (!record.echo_ok) ++tally.echo_mismatches;
    }
    tally.client_reconnects += static_cast<std::size_t>(client->reconnects());
    tally.failover_resumes +=
        static_cast<std::size_t>(client->failover_resumes());
    lanes.push_back(client->transcript_digest());
  }
  tally.fleet_digest = fold_fleet_digest(lanes);
  return tally;
}

// ---- FleetWorld -----------------------------------------------------------

FleetWorld::FleetWorld(const LoadConfig& load, const ServerConfig& server,
                       const ClientConfig& client,
                       const BoundedSessionCache::Config& cache,
                       crypto::Rng* server_rng, bool supervised)
    : load_(load) {
  if (load_.shards == 0) {
    queue_ = std::make_unique<net::EventQueue>();
    cache_ = std::make_unique<BoundedSessionCache>(*queue_, cache);
    // Each world seeds its own server rng so repeated runs are
    // bit-identical.
    if (server_rng == nullptr) {
      own_server_rng_ =
          std::make_unique<crypto::HmacDrbg>(fleet_server_seed(load_.seed));
      server_rng = own_server_rng_.get();
    }
    ServerConfig cfg = server;
    cfg.handshake.rng = server_rng;
    server_ = std::make_unique<SecureSessionServer>(*queue_, std::move(cfg),
                                                    cache_.get());
  } else {
    ShardedServerConfig scfg;
    scfg.shards = load_.shards;
    scfg.slice_us = load_.slice_us;
    scfg.server = server;
    scfg.cache = cache;
    if (supervised) {
      auto sup = std::make_unique<ShardSupervisor>(std::move(scfg));
      supervisor_ = sup.get();
      tier_ = std::move(sup);
    } else {
      tier_ = std::make_unique<ShardedServer>(std::move(scfg));
    }
    honest_attempts_.assign(load_.num_clients, 0);
    other_attempts_.resize(tier_->shards());
  }
  channels_.resize(tier_ ? tier_->shards() : 1);

  for (std::size_t w = 0; w < worlds(); ++w) {
    engine_rngs_.push_back(std::make_unique<crypto::HmacDrbg>(
        load_sub_seed(load_.seed, 0xE17 + w)));
    engines_.push_back(std::make_unique<engine::ProtocolEngine>(
        server.engine_profile, engine_rngs_.back().get()));
    engines_.back()->load_program("ccmp-in", engine::ccmp_inbound_program());
  }

  // Seed and arrival time are functions of the client index alone; only
  // the world a client lives on follows the placement. Supervised honest
  // clients bind: rendezvous-routed over the live shards and migrated
  // when theirs dies.
  const std::vector<net::SimTime> arrivals =
      fleet_arrivals(load_.seed, 0, load_.num_clients,
                     load_.mean_interarrival_us, load_.poisson_arrivals);
  clients_.reserve(load_.num_clients);
  for (std::size_t i = 0; i < load_.num_clients; ++i) {
    const auto key = static_cast<std::uint32_t>(i);
    const std::size_t w =
        supervisor_ != nullptr
            ? shard_for_live(key, worlds(), supervisor_->routable())
            : world_of(key);
    auto c = std::make_unique<SessionClient>(queue(w), client, key,
                                             *engines_[w],
                                             fleet_client_seed(load_.seed, i));
    c->set_connect([this, key, link = client.link](SessionClient&) {
      return connect(key, link);
    });
    if (supervisor_ != nullptr) supervisor_->bind_client(key, c.get());
    c->schedule_start(arrivals[i]);
    clients_.push_back(std::move(c));
  }
}

FleetWorld::~FleetWorld() = default;

net::EventQueue& FleetWorld::queue(std::size_t w) {
  return tier_ ? tier_->queue(w) : *queue_;
}

SecureSessionServer& FleetWorld::server(std::size_t w) {
  return tier_ ? tier_->server(w) : *server_;
}

std::size_t FleetWorld::world_of(std::uint32_t conn_key) const {
  return tier_ ? tier_->shard_of(conn_key) : 0;
}

std::unique_ptr<net::ReliableLink> FleetWorld::connect(
    std::uint32_t conn_key, const net::LinkConfig& link) {
  // Fresh channel per attempt: stale frames of an abandoned attempt can
  // never reach the new connection's link. The client is the "a" side.
  const std::size_t w = world_of(conn_key);
  net::EventQueue& q = queue(w);
  std::unique_ptr<net::DuplexChannel> channel;
  if (!tier_) {
    channel = std::make_unique<net::DuplexChannel>(
        q, load_.channel, load_.channel,
        fleet_channel_seed(load_.seed, connect_counter_++));
    if (on_channel_) on_channel_(w, *channel);
    server_->accept(channel->b_to_a(), channel->a_to_b());
  } else {
    const std::uint32_t attempt = conn_key < honest_attempts_.size()
                                      ? honest_attempts_[conn_key]++
                                      : other_attempts_[w][conn_key]++;
    const std::uint32_t wire_id = make_wire_id(conn_key, attempt);
    channel = std::make_unique<net::DuplexChannel>(
        q, load_.channel, load_.channel,
        fleet_channel_seed(load_.seed, wire_id));
    if (on_channel_) on_channel_(w, *channel);
    if (supervisor_ == nullptr || supervisor_->shard_alive(w)) {
      SecureSessionServer::AcceptOptions opts;
      opts.wire_id = wire_id;
      opts.rng_seed = load_sub_seed(fleet_server_seed(load_.seed), wire_id);
      tier_->accept(conn_key, channel->b_to_a(), channel->a_to_b(), opts);
    }
  }
  auto l = std::make_unique<net::ReliableLink>(q, channel->a_to_b(),
                                               channel->b_to_a(), link);
  channels_[w].push_back(std::move(channel));
  return l;
}

ShardedServer::RunStats FleetWorld::run(std::size_t max_events) {
  if (tier_) return tier_->run(max_events);
  ShardedServer::RunStats rs;
  rs.events_run = queue_->run_all(max_events);
  rs.drained = rs.events_run < max_events;
  rs.degraded_transitions = server_->stats().degraded_transitions;
  rs.degraded_time_us = server_->degraded_time_us();
  return rs;
}

ServerStats FleetWorld::stats() const {
  return tier_ ? tier_->fleet_stats() : server_->stats();
}

std::vector<ShardBreakdown> FleetWorld::breakdown() const {
  if (tier_) return tier_->breakdown();
  ShardBreakdown b;
  b.server = server_->stats();
  b.cache = cache_->stats();
  b.cache_state_bytes = cache_->resumption_state_bytes();
  b.ticket_state_bytes = server_->ticket_state_bytes();
  return {std::move(b)};
}

bool FleetWorld::conserved() const {
  return tier_ ? tier_->conserved() : server_->stats_conserved();
}

std::size_t FleetWorld::open_connections() const {
  return tier_ ? tier_->open_connections() : server_->open_connections();
}

net::SimTime FleetWorld::now() const {
  if (!tier_) return queue_->now();
  net::SimTime end = 0;
  for (std::size_t s = 0; s < tier_->shards(); ++s)
    end = std::max(end, tier_->queue(s).now());
  return end;
}

// ---- LoadGenerator --------------------------------------------------------

platform::ServedLoad served_load(const ServerStats& stats,
                                 std::size_t sessions_completed,
                                 double duration_s) {
  const double dur = duration_s > 0 ? duration_s : 1;
  const double protected_bytes =
      static_cast<double>(stats.bytes_opened + stats.bytes_sealed);
  platform::ServedLoad served;
  served.full_handshakes_per_s =
      static_cast<double>(stats.full_handshakes) / dur;
  served.resumed_handshakes_per_s =
      static_cast<double>(stats.resumed_handshakes) / dur;
  served.sessions_per_s = static_cast<double>(sessions_completed) / dur;
  served.bulk_mbps = protected_bytes * 8 / 1e6 / dur;
  served.avg_session_kb =
      sessions_completed > 0
          ? protected_bytes / 1024.0 / static_cast<double>(sessions_completed)
          : 0;
  return served;
}

LoadReport LoadGenerator::run() {
  FleetWorld world(load_, server_, client_, cache_);
  const ShardedServer::RunStats rs = world.run(load_.max_events);

  LoadReport report;
  static_cast<FleetTally&>(report) = tally_fleet(world.clients());
  report.server = world.stats();
  report.shards = world.breakdown();
  report.conserved = world.conserved();
  report.epochs = rs.epochs;
  report.control_applied = rs.control_applied;
  report.peak_open_connections = rs.peak_open_connections;

  for (const ShardBreakdown& b : report.shards) {
    report.cache += b.cache;
    report.cache_state_bytes += b.cache_state_bytes;
    report.ticket_state_bytes += b.ticket_state_bytes;
  }
  const auto lookups = report.cache.hits + report.cache.misses;
  report.cache_hit_rate = lookups == 0
                              ? 0.0
                              : static_cast<double>(report.cache.hits) /
                                    static_cast<double>(lookups);

  report.sim_duration_s = static_cast<double>(world.now()) / 1e6;
  const platform::ServedLoad served = served_load(
      report.server, report.sessions_completed, report.sim_duration_s);
  report.full_handshakes_per_s = served.full_handshakes_per_s;
  report.resumed_handshakes_per_s = served.resumed_handshakes_per_s;
  report.sessions_per_s = served.sessions_per_s;
  report.record_mbps = served.bulk_mbps;
  // Percentiles off the fleet's merged histograms: exact aggregation of
  // the shards, read to within one bucket of the sorted sample.
  const ServerStats& s = report.server;
  report.handshake_p50_ms = s.handshake_latency.percentile(0.50) / 1e3;
  report.handshake_p99_ms = s.handshake_latency.percentile(0.99) / 1e3;
  report.full_handshake_p50_ms =
      s.full_handshake_latency.percentile(0.50) / 1e3;
  report.full_handshake_p99_ms =
      s.full_handshake_latency.percentile(0.99) / 1e3;
  report.resumed_handshake_p50_ms =
      s.resumed_handshake_latency.percentile(0.50) / 1e3;
  report.resumed_handshake_p99_ms =
      s.resumed_handshake_latency.percentile(0.99) / 1e3;
  report.crypto_backend = engine::PacketPipeline::crypto_backend();

  report.gap = platform::serving_gap(
      platform::WorkloadModel::paper_calibrated(),
      platform::Processor::strongarm_sa1100(), served,
      {.lanes = server_.offload_workers,
       .lane_op_s =
           static_cast<double>(server_.offload_costs.rsa_decrypt_us) / 1e6,
       .batch_width = server_.offload_batch_width,
       .batch_marginal = server_.offload_costs.batch_marginal,
       .tickets = server_.ticket.enabled,
       .shards = load_.shards,
       .slice_us = static_cast<double>(load_.slice_us)});
  return report;
}

}  // namespace mapsec::server
