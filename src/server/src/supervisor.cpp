#include "mapsec/server/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "mapsec/server/load_gen.hpp"

namespace mapsec::server {

ShardSupervisor::ShardSupervisor(ShardedServerConfig config)
    : ShardedServer(std::move(config)),
      draining_(shards()),
      routable_(shards(), true),
      heartbeats_expected_(shards(), 0) {
  // A rejoining shard re-syncs by replaying everything the fleet applied
  // while it was down (and before): keep the full history.
  record_control_history_ = true;
}

void ShardSupervisor::bind_client(std::uint32_t conn_key,
                                  SessionClient* client) {
  Binding b;
  b.client = client;
  b.shard = shard_for_live(conn_key, shards(), routable_);
  bindings_[conn_key] = b;
}

std::size_t ShardSupervisor::shard_of(std::uint32_t conn_key) const {
  const auto it = bindings_.find(conn_key);
  if (it != bindings_.end()) return it->second.shard;
  return shard_for(conn_key, shards());
}

std::size_t ShardSupervisor::live_shards() const {
  std::size_t live = 0;
  for (std::size_t s = 0; s < shards(); ++s)
    if (shards_[s]->alive) ++live;
  return live;
}

void ShardSupervisor::push_op(LifecycleOp op) {
  op.seq = lifecycle_seq_++;
  lifecycle_.push_back(op);
  std::sort(lifecycle_.begin(), lifecycle_.end(),
            [](const LifecycleOp& a, const LifecycleOp& b) {
              return a.due != b.due ? a.due < b.due : a.seq < b.seq;
            });
}

void ShardSupervisor::schedule_crash(net::SimTime at, std::size_t shard,
                                     net::SimTime repair_us) {
  LifecycleOp op;
  op.due = at;
  op.kind = LifecycleOp::Kind::kCrash;
  op.shard = shard;
  op.repair_us = repair_us;
  push_op(op);
}

void ShardSupervisor::schedule_hang(net::SimTime at, std::size_t shard,
                                    net::SimTime repair_us) {
  Hang h;
  h.shard = shard;
  h.repair_us = repair_us;
  h.latch = std::make_shared<net::HangLatch>();
  // The latch event is the hang: the shard's thread blocks inside its
  // slice until the watchdog's unstick releases it.
  shards_[shard]->queue->schedule_at(at, [latch = h.latch] { latch->wait(); });
  hangs_.push_back(std::move(h));
}

void ShardSupervisor::schedule_drain(net::SimTime at, std::size_t shard,
                                     net::SimTime deadline_us,
                                     net::SimTime repair_us) {
  LifecycleOp op;
  op.due = at;
  op.kind = LifecycleOp::Kind::kDrain;
  op.shard = shard;
  op.repair_us = repair_us;
  op.deadline_us = deadline_us;
  push_op(op);
}

void ShardSupervisor::schedule_rejoin(std::size_t shard, net::SimTime now,
                                      net::SimTime repair_us) {
  if (repair_us == kNoRepair) return;
  LifecycleOp op;
  op.due = net::sat_add_time(now, repair_us);
  op.kind = LifecycleOp::Kind::kRejoin;
  op.shard = shard;
  push_op(op);
}

net::SimTime ShardSupervisor::next_lifecycle_due() const {
  return lifecycle_.empty() ? net::EventQueue::kNoEvent
                            : lifecycle_.front().due;
}

void ShardSupervisor::configure_executor(net::ShardExecutor& exec) {
  if (hangs_.empty()) return;
  exec.set_watchdog(std::chrono::milliseconds(watchdog_wall_ms_),
                    [this](bool force) {
                      std::vector<std::size_t> stuck;
                      for (Hang& h : hangs_)
                        if (h.latch->release(force)) stuck.push_back(h.shard);
                      return stuck;
                    });
}

void ShardSupervisor::migrate_clients(std::size_t shard, net::SimTime now,
                                      bool only_idle) {
  for (auto& [key, bind] : bindings_) {
    if (bind.shard != shard) continue;
    if (only_idle && !bind.client->idle()) continue;
    bind.shard = shard_for_live(key, shards(), routable_);
    ++fstats_.clients_migrated;
    bind.client->on_shard_failover(*shards_[bind.shard]->queue, now);
  }
}

void ShardSupervisor::kill_shard(std::size_t shard, net::SimTime now,
                                 const char* reason) {
  Shard& sh = *shards_[shard];
  if (!sh.alive) return;
  sh.alive = false;
  routable_[shard] = false;
  draining_[shard].active = false;
  fstats_.connections_killed += sh.server->fail_all_connections(reason);
  // The world's schedule dies with it: timers, ARQ retransmits, offload
  // completions. The queue object itself survives (its clock keeps
  // following the barriers) and hosts the rejoined world later.
  sh.queue->clear();
  if (fstats_.first_outage_at_us == net::EventQueue::kNoEvent)
    fstats_.first_outage_at_us = now;
  migrate_clients(shard, now, /*only_idle=*/false);
}

void ShardSupervisor::retire_world(std::size_t shard) {
  // Called exactly once per buried world, at the rejoin that replaces it:
  // fleet_stats() reads `retired` PLUS the slot's current server object,
  // so retiring any earlier would double-count the dead world's books.
  Shard& sh = *shards_[shard];
  // Defensive sweep — by here every connection is closed (hard-kill
  // failed them; a completed drain watched them leave).
  sh.server->fail_all_connections("retired");
  sh.retired += sh.server->stats();
  sh.retired_cache += sh.cache->stats();
}

void ShardSupervisor::rejoin_shard(std::size_t shard, net::SimTime now) {
  Shard& sh = *shards_[shard];
  if (sh.alive) return;
  retire_world(shard);

  // Fresh world on the same queue (clock already at the barrier). This
  // mirrors the base constructor exactly: same cache partition, same
  // fallback-rng stream, and — critically — a ticket ring REPLICA: same
  // seed, same birth instant (the tier's construction at t=0), then the
  // recorded control history replayed below, so every manual rotation the
  // fleet saw lands in the same order and pre-crash tickets still open.
  BoundedSessionCache::Config part = config_.cache;
  if (part.capacity > 0)
    part.capacity = (part.capacity + shards() - 1) / shards();
  sh.cache = std::make_unique<BoundedSessionCache>(*sh.queue, part);
  sh.fallback_rng = std::make_unique<crypto::HmacDrbg>(
      load_sub_seed(config_.server.ticket.key_seed, 0x5EED + shard));
  ServerConfig cfg = config_.server;
  cfg.handshake.rng = sh.fallback_rng.get();
  if (config_.server.handshake.rng != nullptr && shards() == 1)
    cfg.handshake.rng = config_.server.handshake.rng;
  if (cfg.ticket.enabled) cfg.ticket.ring_birth_us = 0;
  sh.server = std::make_unique<SecureSessionServer>(*sh.queue, std::move(cfg),
                                                    sh.cache.get());
  sh.server->set_fleet_control(&control_);
  for (const ControlMessage& msg : control_history_) {
    msg.op(*sh.server, shard);
    ++fstats_.control_replayed;
  }
  sh.alive = true;
  routable_[shard] = true;
  // The kill cleared any in-flight heartbeat tick with the queue; re-sync
  // so the first post-rejoin barrier is not misread as a missed beat.
  heartbeats_expected_[shard] = sh.heartbeats;
  ++fstats_.rejoins;
  fstats_.last_rejoin_at_us = now;
  // Clients migrated off stay where they are (moving an in-flight world
  // back across threads buys nothing); rendezvous naturally routes NEW
  // bindings home again. The chaos layer re-arms this shard's weather.
  if (on_rejoin_) on_rejoin_(shard);
}

void ShardSupervisor::beat_hearts(net::SimTime now) {
  // Epoch-barrier heartbeat: each live, non-idle shard gets a tick to run
  // in the next slice; a live shard that missed its previous tick is a
  // supervision failure (it never fires unless the executor is broken —
  // a HUNG shard still completes its slice once the watchdog releases
  // it). Idle shards get no tick so a drained fleet still quiesces.
  for (std::size_t s = 0; s < shards(); ++s) {
    Shard& sh = *shards_[s];
    if (!sh.alive) continue;
    if (sh.heartbeats != heartbeats_expected_[s])
      ++fstats_.missed_heartbeats;
    if (sh.queue->empty()) continue;
    sh.queue->schedule_at(now, [&beats = sh.heartbeats] { ++beats; });
    heartbeats_expected_[s] = sh.heartbeats + 1;
  }
  std::uint64_t seen = 0;
  for (std::size_t s = 0; s < shards(); ++s) seen += shards_[s]->heartbeats;
  fstats_.heartbeats_seen = seen;
}

void ShardSupervisor::at_barrier(net::SimTime now, RunStats& rs,
                                 net::ShardExecutor& exec) {
  (void)rs;
  // 1. Hang detection: shards the watchdog had to unstick during the
  //    slice that just completed. Which shards these are is decided by
  //    the simulated schedule (only an ENGAGED latch reports), so the
  //    escalation below replays identically run over run.
  for (const std::size_t s : exec.last_stragglers()) {
    for (Hang& h : hangs_) {
      if (h.shard != s || h.handled) continue;
      h.handled = true;
      ++fstats_.hangs_detected;
      kill_shard(s, now, "shard hang (watchdog hard-kill)");
      schedule_rejoin(s, now, h.repair_us);
      break;
    }
  }

  // 2. Due lifecycle ops, in (due, seq) order.
  std::size_t processed = 0;
  for (std::size_t i = 0; i < lifecycle_.size(); ++i) {
    const LifecycleOp op = lifecycle_[i];
    if (op.due > now) break;
    ++processed;
    Shard& sh = *shards_[op.shard];
    switch (op.kind) {
      case LifecycleOp::Kind::kCrash:
        if (!sh.alive) break;
        ++fstats_.crashes;
        kill_shard(op.shard, now, "shard crash (supervisor hard-kill)");
        schedule_rejoin(op.shard, now, op.repair_us);
        break;
      case LifecycleOp::Kind::kDrain: {
        if (!sh.alive) break;
        ++fstats_.drains;
        draining_[op.shard].active = true;
        draining_[op.shard].repair_us = op.repair_us;
        routable_[op.shard] = false;
        migrate_clients(op.shard, now, /*only_idle=*/true);
        LifecycleOp deadline;
        deadline.due = net::sat_add_time(now, op.deadline_us);
        deadline.kind = LifecycleOp::Kind::kDrainDeadline;
        deadline.shard = op.shard;
        deadline.repair_us = op.repair_us;
        push_op(deadline);
        break;
      }
      case LifecycleOp::Kind::kDrainDeadline:
        if (!draining_[op.shard].active) break;  // drain already completed
        ++fstats_.drain_hard_kills;
        kill_shard(op.shard, now, "drain deadline (hard-kill)");
        schedule_rejoin(op.shard, now, op.repair_us);
        break;
      case LifecycleOp::Kind::kRejoin:
        rejoin_shard(op.shard, now);
        break;
    }
    // push_op re-sorts lifecycle_; restart the scan over the (possibly
    // reordered) prefix. Ops already executed are counted by `processed`
    // and sit before any op with a later due time, so erasing the prefix
    // below stays correct.
  }
  lifecycle_.erase(lifecycle_.begin(),
                   lifecycle_.begin() + static_cast<std::ptrdiff_t>(processed));

  // 3. Drain progress: migrate clients that went idle since the drain
  //    started; when the last connection leaves, retire the world and
  //    schedule the rejoin.
  for (std::size_t s = 0; s < shards(); ++s) {
    if (!draining_[s].active) continue;
    migrate_clients(s, now, /*only_idle=*/true);
    if (shards_[s]->server->open_connections() != 0) continue;
    draining_[s].active = false;
    shards_[s]->alive = false;
    shards_[s]->queue->clear();
    // Whoever is still bound here (e.g. mid-backoff between attempts)
    // must dial a survivor next.
    migrate_clients(s, now, /*only_idle=*/false);
    if (fstats_.first_outage_at_us == net::EventQueue::kNoEvent)
      fstats_.first_outage_at_us = now;
    schedule_rejoin(s, now, draining_[s].repair_us);
  }

  // 4. Health heartbeats for the next slice.
  beat_hearts(now);
}

}  // namespace mapsec::server
