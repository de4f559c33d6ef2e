#include "mapsec/server/sharded_server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "mapsec/net/shard_exec.hpp"
#include "mapsec/server/load_gen.hpp"

namespace mapsec::server {

std::size_t shard_for(std::uint32_t conn_key, std::size_t shards) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (int i = 0; i < 4; ++i) {
    h ^= (conn_key >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;  // FNV prime
  }
  return shards > 1 ? static_cast<std::size_t>(h % shards) : 0;
}

std::size_t shard_for_live(std::uint32_t conn_key, std::size_t shards,
                           const std::vector<bool>& routable) {
  // Highest-random-weight: weight(key, shard) is a fixed mix of the two,
  // so removing one shard never perturbs another key's argmax.
  std::size_t best = shards;  // sentinel: nothing routable yet
  std::uint64_t best_w = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    if (s < routable.size() && !routable[s]) continue;
    std::uint64_t w = (static_cast<std::uint64_t>(conn_key) << 32) |
                      (static_cast<std::uint64_t>(s) + 1);
    w *= 0x9E3779B97F4A7C15ull;
    w ^= w >> 29;
    w *= 0xBF58476D1CE4E5B9ull;
    w ^= w >> 32;
    if (best == shards || w > best_w) {
      best = s;
      best_w = w;
    }
  }
  return best == shards ? shard_for(conn_key, shards) : best;
}

ShardedServer::ShardedServer(ShardedServerConfig config)
    : config_(std::move(config)) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.slice_us == 0) config_.slice_us = 1'000;

  BoundedSessionCache::Config part = config_.cache;
  if (part.capacity > 0)
    part.capacity =
        (part.capacity + config_.shards - 1) / config_.shards;

  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->queue = std::make_unique<net::EventQueue>();
    shard->cache = std::make_unique<BoundedSessionCache>(*shard->queue, part);
    ServerConfig cfg = config_.server;
    // Per-shard fallback rng: connections normally get their own stream
    // via AcceptOptions::rng_seed, but an accept without one must not
    // share a DRBG across shard threads.
    shard->fallback_rng = std::make_unique<crypto::HmacDrbg>(
        load_sub_seed(config_.server.ticket.key_seed, 0x5EED + s));
    cfg.handshake.rng = shard->fallback_rng.get();
    if (config_.server.handshake.rng != nullptr && config_.shards == 1)
      cfg.handshake.rng = config_.server.handshake.rng;
    shard->server = std::make_unique<SecureSessionServer>(
        *shard->queue, std::move(cfg), shard->cache.get());
    shard->server->set_fleet_control(&control_);
    shards_.push_back(std::move(shard));
  }
}

ShardedServer::~ShardedServer() {
  // Detach the fleet snapshot before the servers die (it outlives them
  // here, but keep the teardown order obviously safe).
  for (auto& shard : shards_) shard->server->set_fleet_control(nullptr);
}

std::uint32_t ShardedServer::accept(
    std::uint32_t conn_key, net::Channel& tx, net::Channel& rx,
    const SecureSessionServer::AcceptOptions& opts) {
  return shards_[shard_of(conn_key)]->server->accept(tx, rx, opts);
}

void ShardedServer::schedule_control(
    net::SimTime due,
    std::function<void(SecureSessionServer&, std::size_t)> op) {
  ControlMessage msg;
  msg.due = due;
  msg.seq = control_seq_++;
  msg.op = std::move(op);
  control_queue_.push_back(std::move(msg));
  std::sort(control_queue_.begin(), control_queue_.end(),
            [](const ControlMessage& a, const ControlMessage& b) {
              return a.due != b.due ? a.due < b.due : a.seq < b.seq;
            });
}

void ShardedServer::rotate_ticket_keys(net::SimTime due) {
  schedule_control(due, [](SecureSessionServer& server, std::size_t) {
    server.rotate_ticket_key();
  });
}

net::SimTime ShardedServer::next_control_due() const {
  return control_queue_.empty() ? net::EventQueue::kNoEvent
                                : control_queue_.front().due;
}

std::size_t ShardedServer::open_connections() const {
  std::size_t open = 0;
  for (const auto& shard : shards_)
    open += shard->server->handshakes_in_flight() +
            shard->server->established_connections();
  return open;
}

void ShardedServer::refresh_control(net::SimTime now, RunStats& rs) {
  // 1. Deliver due control messages, ordered by (due, seq), each to every
  //    shard in shard order — the "ordered control messages at slice
  //    boundaries" half of the merge.
  std::size_t applied = 0;
  for (ControlMessage& msg : control_queue_) {
    if (msg.due > now) break;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      // A dead shard misses control traffic, exactly like a crashed
      // front-end misses a key-rotation push; the supervisor replays the
      // recorded history into the rejoined world to re-sync it.
      if (!shards_[s]->alive) continue;
      msg.op(*shards_[s]->server, s);
      ++rs.control_applied;
    }
    if (record_control_history_) control_history_.push_back(msg);
    ++applied;
  }
  control_queue_.erase(control_queue_.begin(),
                       control_queue_.begin() +
                           static_cast<std::ptrdiff_t>(applied));

  // 2. Re-freeze the fleet admission snapshot from the quiescent shards.
  std::size_t in_flight = 0;
  std::size_t open = 0;
  for (const auto& shard : shards_) {
    in_flight += shard->server->handshakes_in_flight();
    open += shard->server->handshakes_in_flight() +
            shard->server->established_connections();
  }
  control_.handshakes_in_flight = in_flight;
  control_.open_connections = open;
  rs.peak_open_connections = std::max(rs.peak_open_connections, open);

  // 3. Fleet-level degraded transitions (the per-shard watermark logic is
  //    disabled under FleetControl; watermarks are fleet limits here).
  if (config_.server.degraded_high_watermark != 0) {
    const std::size_t high = config_.server.degraded_high_watermark;
    const std::size_t low = config_.server.degraded_low_watermark != 0
                                ? config_.server.degraded_low_watermark
                                : high / 2;
    if (!fleet_degraded_ && in_flight >= high) {
      fleet_degraded_ = true;
      fleet_degraded_since_ = now;
      ++fleet_degraded_transitions_;
    } else if (fleet_degraded_ && in_flight <= low) {
      fleet_degraded_time_us_ +=
          static_cast<double>(now - fleet_degraded_since_);
      fleet_degraded_ = false;
    }
  }
  control_.degraded = fleet_degraded_;
}

ShardedServer::RunStats ShardedServer::run(std::size_t max_events) {
  RunStats rs;
  std::vector<net::EventQueue*> queues;
  queues.reserve(shards_.size());
  for (auto& shard : shards_) queues.push_back(shard->queue.get());
  net::ShardExecutor exec(std::move(queues));
  configure_executor(exec);

  for (;;) {
    // Supervisor lifecycle first: a shard killed at this barrier must be
    // out of the fleet snapshot refresh_control freezes next.
    at_barrier(barrier_time_, rs, exec);
    refresh_control(barrier_time_, rs);
    const net::SimTime next =
        std::min({exec.next_event_time(), next_control_due(),
                  next_lifecycle_due()});
    if (next == net::EventQueue::kNoEvent) break;
    // One bounded slice covering the next instant anything can happen:
    // the smallest slice-aligned deadline strictly past `next`.
    const net::SimTime deadline =
        (next / config_.slice_us + 1) * config_.slice_us;
    exec.run_slice(deadline);
    barrier_time_ = deadline;
    ++rs.epochs;
    if (exec.events_run() > max_events) {
      rs.drained = false;
      break;
    }
  }
  if (fleet_degraded_) {
    fleet_degraded_time_us_ +=
        static_cast<double>(barrier_time_ - fleet_degraded_since_);
    fleet_degraded_since_ = barrier_time_;
  }
  rs.events_run = exec.events_run();
  rs.degraded_transitions = fleet_degraded_transitions_;
  rs.degraded_time_us = fleet_degraded_time_us_;
  return rs;
}

ServerStats ShardedServer::fleet_stats() const {
  ServerStats fleet;
  for (const auto& shard : shards_) {
    fleet += shard->retired;
    fleet += shard->server->stats();
  }
  // Degraded accounting is fleet-level under the merge; per-shard values
  // are zero by construction.
  fleet.degraded_transitions += fleet_degraded_transitions_;
  fleet.degraded_time_us += fleet_degraded_time_us_;
  return fleet;
}

std::vector<ShardBreakdown> ShardedServer::breakdown() const {
  std::vector<ShardBreakdown> out;
  out.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardBreakdown b;
    b.shard = s;
    // Retired (pre-crash) worlds plus the current one: the slot's whole
    // history, so per-shard sums still reconcile with the fleet totals
    // after a death and rejoin.
    b.server = shards_[s]->retired;
    b.server += shards_[s]->server->stats();
    b.cache = shards_[s]->retired_cache;
    b.cache += shards_[s]->cache->stats();
    b.cache_state_bytes = shards_[s]->cache->resumption_state_bytes();
    b.ticket_state_bytes = shards_[s]->server->ticket_state_bytes();
    out.push_back(std::move(b));
  }
  return out;
}

bool ShardedServer::conserved() const {
  std::uint64_t accepted = 0, closed = 0;
  for (const auto& shard : shards_) {
    if (!shard->server->stats_conserved()) return false;
    // A retired world was buried with zero open connections (the kill
    // fails every survivor first), so its books must balance exactly.
    const ServerStats& r = shard->retired;
    if (r.connections_accepted !=
        r.graceful_closes + r.idle_closes + r.failed_connections +
            r.refused_connections)
      return false;
    const ServerStats s = shard->server->stats();
    accepted += r.connections_accepted + s.connections_accepted;
    closed += r.graceful_closes + r.idle_closes + r.failed_connections +
              r.refused_connections;
    closed += s.graceful_closes + s.idle_closes + s.failed_connections +
              s.refused_connections;
  }
  const ServerStats fleet = fleet_stats();
  return fleet.connections_accepted == accepted &&
         fleet.connections_accepted == closed + open_connections();
}

}  // namespace mapsec::server
