#include "mapsec/server/server.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

namespace mapsec::server {

namespace {

template <typename T>
void merge_sum(T& dst, T src) {
  dst += src;
}

template <typename T>
void merge_max(T& dst, T src) {
  dst = std::max(dst, src);
}

}  // namespace

ServerStats& ServerStats::operator+=(const ServerStats& other) {
#define MAPSEC_SERVER_STATS_MERGE(type, name, merge) \
  merge_##merge(name, other.name);
  MAPSEC_SERVER_STATS_FIELDS(MAPSEC_SERVER_STATS_MERGE)
#undef MAPSEC_SERVER_STATS_MERGE
  analysis::merge(handshake_latency, other.handshake_latency);
  analysis::merge(full_handshake_latency, other.full_handshake_latency);
  analysis::merge(resumed_handshake_latency,
                  other.resumed_handshake_latency);
  return *this;
}

SecureSessionServer::SecureSessionServer(net::EventQueue& queue,
                                         ServerConfig config,
                                         protocol::SessionCache* cache)
    : queue_(queue),
      config_(std::move(config)),
      cache_(cache),
      pipeline_(config_.engine_profile, config_.pipeline_workers,
                config_.pipeline_seed) {
  pipeline_.load_program("ccmp-out", engine::ccmp_outbound_program());
  pipeline_.load_program("ccmp-in", engine::ccmp_inbound_program());
  if (config_.offload_workers > 0)
    offload_ = std::make_unique<engine::OffloadEngine>(
        queue, config_.offload_workers, config_.offload_costs,
        config_.offload_steal_timeout_ms, config_.offload_batch_width);
  if (config_.ticket.enabled) {
    const std::uint64_t birth =
        config_.ticket.ring_birth_us == ServerConfig::TicketConfig::kRingBirthNow
            ? queue.now()
            : config_.ticket.ring_birth_us;
    ticket_ring_ = std::make_unique<ticket::TicketKeyRing>(
        config_.ticket.key_seed,
        ticket::TicketKeyRing::Config{config_.ticket.decrypt_window,
                                      config_.ticket.rotation_interval_us},
        birth);
    ticket_codec_ = std::make_unique<ticket::TicketCodec>(
        *ticket_ring_,
        ticket::TicketCodec::Config{config_.ticket.lifetime_us,
                                    config_.ticket.max_wire_len});
  }
}

void SecureSessionServer::rotate_ticket_key() {
  if (!ticket_ring_) return;
  ticket_ring_->rotate(queue_.now());
  ++stats_.ticket_key_rotations;
}

ServerStats SecureSessionServer::stats() const {
  ServerStats snapshot = stats_;
  if (offload_) {
    const engine::OffloadStats& os = offload_->stats();
    snapshot.offload_submitted = os.submitted;
    snapshot.offload_completed = os.completed;
    snapshot.offload_stolen = os.stolen;
    snapshot.offload_peak_depth = os.peak_depth;
    snapshot.offload_queue_wait_us = os.queue_wait_us;
    snapshot.offload_lane_busy_us = os.lane_busy_us;
    snapshot.offload_batches = os.batches;
    snapshot.offload_batched_jobs = os.batched_jobs;
    snapshot.offload_max_batch_fill = os.max_batch_fill;
  }
  if (ticket_codec_) {
    const ticket::TicketCodec::Stats& ts = ticket_codec_->stats();
    snapshot.tickets_issued = ts.sealed;
    snapshot.ticket_open_failures = ts.open_failures();
  }
  return snapshot;
}

std::uint32_t SecureSessionServer::accept(net::Channel& tx,
                                          net::Channel& rx) {
  return accept(tx, rx, AcceptOptions{});
}

std::uint32_t SecureSessionServer::accept(net::Channel& tx,
                                          net::Channel& rx,
                                          const AcceptOptions& opts) {
  const std::uint32_t id = next_id_++;
  Connection& conn = connections_[id];
  conn.id = id;
  conn.wire_id = opts.wire_id != 0 ? opts.wire_id : id;
  if (opts.rng_seed != 0)
    conn.rng = std::make_unique<crypto::HmacDrbg>(opts.rng_seed);
  conn.accepted_at = queue_.now();
  conn.last_activity = queue_.now();
  conn.link = std::make_unique<net::ReliableLink>(queue_, tx, rx,
                                                  config_.link);
  conn.link->set_on_message([this, id](crypto::ConstBytes msg) {
    on_message(id, msg);
  });
  conn.link->set_on_error([this, id](const std::string& reason) {
    on_link_error(id, reason);
  });
  ++stats_.connections_accepted;

  if (should_refuse()) {
    // Shed before any handshake state exists: no TlsServer endpoint, no
    // timer, no queue slot — the refusal costs one message and a
    // lingering link.
    refuse_connection(conn);
    return id;
  }

  // Degraded mode is sampled at accept time: connections admitted while
  // overloaded may only resume (the refusal happens at the ClientHello,
  // before certificates or RSA).
  protocol::HandshakeConfig hs = config_.handshake;
  hs.resumption_only = degraded();
  hs.async_pk = offload_ != nullptr;
  if (conn.rng) hs.rng = conn.rng.get();
  if (ticket_codec_) {
    // Lazy interval rotation: the ring advances when traffic samples the
    // clock (no self-rescheduling event, so an idle queue still drains).
    stats_.ticket_key_rotations +=
        ticket_ring_->maybe_rotate(queue_.now());
    hs.ticket_codec = ticket_codec_.get();
    hs.ticket_now_us = queue_.now();
  }
  conn.endpoint = std::make_unique<protocol::TlsServer>(hs, cache_);
  conn.handshake_timer =
      queue_.schedule_in(config_.handshake_timeout_us, [this, id] {
        Connection* c = find(id);
        if (c == nullptr) return;
        c->handshake_timer = 0;
        if (c->state == ConnState::kHandshake)
          fail_connection(*c, "handshake timeout");
      });
  ++stats_.handshakes_started;
  ++handshakes_in_flight_;
  update_degraded();
  return id;
}

bool SecureSessionServer::should_refuse() const {
  // Sharded tier: admission reads the barrier-frozen fleet snapshot, so
  // the decision for a given connection depends only on slice-boundary
  // state — identical for any shard count — never on which shard its
  // neighbours happened to hash to.
  const std::size_t open = fleet_control_
                               ? fleet_control_->open_connections
                               : handshakes_in_flight_ + established_count_;
  const std::size_t in_flight = fleet_control_
                                    ? fleet_control_->handshakes_in_flight
                                    : handshakes_in_flight_;
  if (config_.max_open_connections != 0 &&
      open >= config_.max_open_connections)
    return true;
  return config_.max_handshake_queue != 0 &&
         in_flight >= config_.max_handshake_queue;
}

void SecureSessionServer::refuse_connection(Connection& conn) {
  conn.state = ConnState::kShed;
  ++stats_.refused_connections;
  conn.link->send_message(make_msg(MsgKind::kRefused, {}));
  const std::uint32_t id = conn.id;
  queue_.schedule_in(config_.refusal_linger_us, [this, id] {
    Connection* c = find(id);
    if (c != nullptr && c->state == ConnState::kShed) {
      c->state = ConnState::kClosed;
      c->link->shutdown();
      schedule_retire(id);
    }
  });
}

void SecureSessionServer::leave_handshake(Connection& conn) {
  (void)conn;
  --handshakes_in_flight_;
  update_degraded();
}

void SecureSessionServer::account_handshake_work(const Connection& conn) {
  if (!conn.endpoint) return;
  const protocol::HandshakeSummary& s = conn.endpoint->summary();
  stats_.handshake_rsa_private_ops +=
      static_cast<std::uint64_t>(s.rsa_private_ops);
  stats_.handshake_bytes_rx += s.bytes_received;
  stats_.handshake_bytes_tx += s.bytes_sent;
}

void SecureSessionServer::update_degraded() {
  // Sharded tier: degraded transitions are a fleet-level decision taken
  // by the merge step at epoch barriers; local watermark logic is off.
  if (fleet_control_) return;
  if (config_.degraded_high_watermark == 0) return;
  const std::size_t low = config_.degraded_low_watermark != 0
                              ? config_.degraded_low_watermark
                              : config_.degraded_high_watermark / 2;
  if (!degraded_ &&
      handshakes_in_flight_ >= config_.degraded_high_watermark) {
    degraded_ = true;
    degraded_since_ = queue_.now();
    ++stats_.degraded_transitions;
  } else if (degraded_ && handshakes_in_flight_ <= low) {
    stats_.degraded_time_us +=
        static_cast<double>(queue_.now() - degraded_since_);
    degraded_ = false;
  }
}

double SecureSessionServer::degraded_time_us() const {
  double total = stats_.degraded_time_us;
  if (degraded_)
    total += static_cast<double>(queue_.now() - degraded_since_);
  return total;
}

bool SecureSessionServer::stats_conserved() const {
  return stats_.connections_accepted ==
         stats_.graceful_closes + stats_.idle_closes +
             stats_.failed_connections + stats_.refused_connections +
             open_connections();
}

std::size_t SecureSessionServer::fail_all_connections(
    const std::string& reason) {
  std::vector<std::uint32_t> open;
  for (const auto& [id, conn] : connections_)
    if (conn.state == ConnState::kHandshake ||
        conn.state == ConnState::kEstablished)
      open.push_back(id);
  std::sort(open.begin(), open.end());  // the table's order is arbitrary
  for (const std::uint32_t id : open)
    fail_connection(connections_.at(id), reason);
  return open.size();
}

SecureSessionServer::Connection* SecureSessionServer::find(
    std::uint32_t id) {
  const auto it = connections_.find(id);
  return it == connections_.end() ? nullptr : &it->second;
}

void SecureSessionServer::schedule_retire(std::uint32_t id) {
  // Never retire in place: the transition to a terminal state, or the
  // link's death, usually happens inside a callback of that very link
  // (or of the TlsServer's caller), which must be allowed to unwind.
  queue_.schedule_in(0, [this, id] { retire(id); });
}

void SecureSessionServer::retire(std::uint32_t id) {
  Connection* conn = find(id);
  if (conn == nullptr || (conn->state != ConnState::kClosed &&
                          conn->state != ConnState::kFailed))
    return;
  // Stage 1: the session is over. Its handshake endpoint, DRBG, queued
  // data and SA can go now, even if its link must linger.
  if (conn->endpoint) {
    if (conn->endpoint->established()) pipeline_.remove_sa(conn->wire_id);
    conn->endpoint.reset();
  }
  conn->rng.reset();
  conn->pending_echo.clear();
  conn->pending_echo_bytes = 0;
  conn->deferred_appdata.clear();
  conn->deferred_bytes = 0;
  // Stage 2: a dead link delivers nothing more, so the entry can go.
  // A live one (a graceful close still owes the peer its kCloseAck
  // retransmission) comes back here through on_link_error when it dies.
  if (conn->link->dead()) connections_.erase(id);
}

void SecureSessionServer::on_message(std::uint32_t id,
                                     crypto::ConstBytes msg) {
  if (msg.empty() || find(id) == nullptr) return;
  const auto kind = static_cast<MsgKind>(msg[0]);
  // Modeled core: a handshake flight or appdata record that arrives while
  // this server's one core is still serving an earlier message queues
  // behind it (FIFO) and is processed when the core frees up — in
  // simulated time, which is what makes N shards genuinely N times the
  // serving capacity. Control traffic (kClose) stays free.
  if (config_.core.enabled() &&
      (kind == MsgKind::kHandshake || kind == MsgKind::kAppData) &&
      (core_busy_until_ > queue_.now() || !core_queue_.empty())) {
    core_queue_.emplace_back(id, crypto::Bytes(msg.begin(), msg.end()));
    ++stats_.core_deferred_msgs;
    stats_.core_peak_queue =
        std::max<std::uint64_t>(stats_.core_peak_queue, core_queue_.size());
    if (!core_drain_scheduled_) {
      core_drain_scheduled_ = true;
      queue_.schedule_at(core_busy_until_, [this] { drain_core(); });
    }
    return;
  }
  deliver_message(id, msg);
}

void SecureSessionServer::deliver_message(std::uint32_t id,
                                          crypto::ConstBytes msg) {
  Connection* found = find(id);
  if (found == nullptr || found->state == ConnState::kClosed ||
      found->state == ConnState::kFailed || found->state == ConnState::kShed)
    return;
  Connection& conn = *found;
  conn.last_activity = queue_.now();
  const auto kind = static_cast<MsgKind>(msg[0]);
  const crypto::ConstBytes body = msg.subspan(1);
  const double rsa_before =
      conn.endpoint ? conn.endpoint->summary().rsa_private_ops : 0;
  // Containment: whatever one connection's input does, only that
  // connection dies — the event loop and every other session survive.
  try {
    switch (kind) {
      case MsgKind::kHandshake:
        handle_handshake(conn, body);
        break;
      case MsgKind::kAppData:
        handle_appdata(conn, body);
        break;
      case MsgKind::kClose:
        if (conn.state == ConnState::kEstablished) {
          conn.link->send_message(make_msg(MsgKind::kCloseAck, {}));
          close_connection(conn, &ServerStats::graceful_closes);
        }
        break;
      default:
        break;  // kBulk/kCloseAck/kRefused are server->client only: ignore
    }
  } catch (const std::exception& e) {
    ++stats_.poisoned_connections;
    fail_connection(conn, e.what());
  }
  if (config_.core.enabled())
    charge_core(conn, kind, body.size(), rsa_before);
}

void SecureSessionServer::charge_core(Connection& conn, MsgKind kind,
                                      std::size_t body_bytes,
                                      double rsa_ops_before) {
  double cost = 0;
  if (kind == MsgKind::kHandshake) {
    cost = config_.core.us_per_flight;
    // Price the private-key work this flight actually triggered — a
    // resumed handshake's flights stay cheap, which is the whole
    // resumption story. With an OffloadEngine the op runs on the
    // accelerator's lane clock instead, so the host core is not charged.
    if (!offload_ && conn.endpoint) {
      const double delta =
          conn.endpoint->summary().rsa_private_ops - rsa_ops_before;
      if (delta > 0) cost += delta * config_.core.us_per_pk_op;
    }
  } else if (kind == MsgKind::kAppData) {
    cost = config_.core.us_per_appdata_kb *
           (static_cast<double>(body_bytes) / 1024.0);
  }
  if (cost <= 0) return;
  const auto cost_us = static_cast<net::SimTime>(cost + 0.5);
  core_busy_until_ = net::sat_add_time(queue_.now(), cost_us);
  stats_.core_busy_us += static_cast<double>(cost_us);
}

void SecureSessionServer::drain_core() {
  core_drain_scheduled_ = false;
  while (!core_queue_.empty() && core_busy_until_ <= queue_.now()) {
    const auto [id, raw] = std::move(core_queue_.front());
    core_queue_.pop_front();
    deliver_message(id, raw);
  }
  if (!core_queue_.empty()) {
    core_drain_scheduled_ = true;
    queue_.schedule_at(core_busy_until_, [this] { drain_core(); });
  }
}

void SecureSessionServer::handle_handshake(Connection& conn,
                                           crypto::ConstBytes body) {
  if (conn.state != ConnState::kHandshake) return;  // late flight
  try {
    const protocol::HandshakeStep step =
        protocol::step_handshake(*conn.endpoint, body);
    if (!step.output.empty())
      conn.link->send_message(make_msg(MsgKind::kHandshake, step.output));
    if (step.established)
      complete_handshake(conn);
    else if (step.pk_pending)
      submit_pk(conn);
  } catch (const protocol::HandshakeError& e) {
    if (std::string_view(e.what()).find("resumption only") !=
        std::string_view::npos)
      ++stats_.degraded_refusals;
    fail_connection(conn, e.what());
  }
  // Non-HandshakeError exceptions (rng exhaustion, codec faults) fall
  // through to on_message's containment catch and are counted poisoned.
}

void SecureSessionServer::submit_pk(Connection& conn) {
  // The endpoint suspended on a private-key operation: hand the job to
  // the accelerator and yield the event loop. The connection stays in
  // kHandshake (so handshakes_in_flight_, admission control and degraded
  // mode all see the deferred backlog) until the completion event — or
  // its handshake timeout, whichever fires first.
  const std::uint32_t id = conn.id;
  offload_->submit(
      conn.endpoint->pending_pk_job(),
      [this, id](const protocol::PkResult& result) {
        Connection* found = find(id);
        if (found == nullptr || found->state != ConnState::kHandshake ||
            !found->endpoint || !found->endpoint->pk_pending()) {
          // Timed out / failed / closed while the job was in flight.
          ++stats_.offload_dropped;
          return;
        }
        Connection& c = *found;
        try {
          const crypto::Bytes out = c.endpoint->resume_pk(result);
          if (!out.empty())
            c.link->send_message(make_msg(MsgKind::kHandshake, out));
          if (c.endpoint->established())
            complete_handshake(c);
          else if (c.endpoint->pk_pending())
            submit_pk(c);  // e.g. CKE decrypt, then CertificateVerify
        } catch (const protocol::HandshakeError& e) {
          fail_connection(c, e.what());
        } catch (const std::exception& e) {
          ++stats_.poisoned_connections;
          fail_connection(c, e.what());
        }
      });
}

void SecureSessionServer::complete_handshake(Connection& conn) {
  if (conn.handshake_timer) {
    queue_.cancel(conn.handshake_timer);
    conn.handshake_timer = 0;
  }
  conn.state = ConnState::kEstablished;
  leave_handshake(conn);
  ++established_count_;
  account_handshake_work(conn);
  ++stats_.handshakes_completed;
  const protocol::HandshakeSummary& summary = conn.endpoint->summary();
  summary.resumed ? ++stats_.resumed_handshakes : ++stats_.full_handshakes;
  if (summary.ticket_resumed) ++stats_.ticket_resumptions;
  const double latency_us =
      static_cast<double>(queue_.now() - conn.accepted_at);
  stats_.handshake_latency.record(latency_us);
  (summary.resumed ? stats_.resumed_handshake_latency
                   : stats_.full_handshake_latency)
      .record(latency_us);

  const BulkKeys keys = derive_bulk_keys(conn.endpoint->master_secret(),
                                         summary.session_id);
  // Keyed by the WIRE id, not the dense local id: under sharding the
  // local id depends on the shard count, and nothing shard-count-
  // dependent may reach the SPI, the SA or the nonce stream.
  pipeline_.add_sa(conn.wire_id, make_bulk_sa(conn.wire_id, keys));
  arm_idle_timer(conn);
}

void SecureSessionServer::handle_appdata(Connection& conn,
                                         crypto::ConstBytes body) {
  if (conn.state != ConnState::kEstablished) return;
  if (conn.pending_echo_bytes >= config_.max_pending_echo_bytes) {
    // Backpressure: hold the raw records until the pipeline drains the
    // queue. Deferred, not dropped — the link already acked them. But
    // deferral is itself bounded: a peer that blows through BOTH queues
    // is violating flow control and fails cleanly rather than growing
    // server memory without limit.
    if (config_.max_deferred_appdata_bytes != 0 &&
        conn.deferred_bytes + body.size() >
            config_.max_deferred_appdata_bytes) {
      ++stats_.deferred_overflow_closes;
      fail_connection(conn, "deferred appdata bound exceeded");
      return;
    }
    conn.deferred_bytes += body.size();
    stats_.peak_deferred_bytes =
        std::max<std::uint64_t>(stats_.peak_deferred_bytes,
                                conn.deferred_bytes);
    conn.deferred_appdata.emplace_back(body.begin(), body.end());
    if (!conn.deferred_listed) {
      conn.deferred_listed = true;
      deferred_ids_.push_back(conn.id);
    }
    ++stats_.backpressure_deferrals;
    return;
  }
  process_appdata(conn, body);
}

void SecureSessionServer::process_appdata(Connection& conn,
                                          crypto::ConstBytes records) {
  std::vector<crypto::Bytes> payloads;
  try {
    payloads = conn.endpoint->recv_data(records);
  } catch (const std::exception& e) {
    fail_connection(conn, e.what());
    return;
  }
  for (auto& payload : payloads) {
    ++stats_.app_messages;
    stats_.bytes_opened += payload.size();
    conn.pending_echo_bytes += payload.size();
    conn.pending_echo.push_back(std::move(payload));
  }
  stats_.peak_pending_echo_bytes = std::max<std::uint64_t>(
      stats_.peak_pending_echo_bytes, conn.pending_echo_bytes);
  if (conn.pending_echo.empty()) return;
  if (!conn.echo_listed) {
    conn.echo_listed = true;
    echo_ids_.push_back(conn.id);
  }
  schedule_flush();
}

void SecureSessionServer::schedule_flush() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  // A 0-delay event runs after everything already due at this instant:
  // in the sim, every same-instant delivery (FIFO ties); under a Reactor,
  // the whole epoll ready set, which is dispatched before the queue runs.
  // So one flush seals the instant's echoes as one batch, and the batch
  // widens by itself under load.
  queue_.schedule_in(0, [this] { flush_pipeline(); });
}

void SecureSessionServer::flush_pipeline() {
  flush_scheduled_ = false;

  // Gather pending echoes in connection-id order: the job sequence — and
  // therefore each SA's nonce stream — is independent of arrival
  // interleaving within the instant. Only the connections holding an
  // echo are visited, never the whole table.
  std::vector<std::uint32_t> ids;
  ids.swap(echo_ids_);
  std::sort(ids.begin(), ids.end());
  std::vector<engine::PipelineJob> jobs;
  std::vector<std::pair<std::uint32_t, std::size_t>> meta;  // conn, plen
  for (const std::uint32_t id : ids) {
    Connection* found = find(id);
    if (found == nullptr) continue;
    Connection& conn = *found;
    conn.echo_listed = false;
    if (conn.state != ConnState::kEstablished) continue;
    while (!conn.pending_echo.empty()) {
      crypto::Bytes payload = std::move(conn.pending_echo.front());
      conn.pending_echo.pop_front();
      engine::PipelineJob job;
      job.sa_id = conn.wire_id;
      job.program = "ccmp-out";
      job.packet = bulk_header(conn.wire_id, conn.bulk_seq++);
      job.packet.insert(job.packet.end(), payload.begin(), payload.end());
      meta.emplace_back(conn.id, payload.size());
      jobs.push_back(std::move(job));
    }
    conn.pending_echo_bytes = 0;
  }
  if (jobs.empty()) return;

  const std::vector<engine::PipelineResult> results =
      pipeline_.run_batch(jobs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const engine::PipelineResult& r = results[i];
    Connection* conn = find(meta[i].first);
    stats_.engine_cycles += r.engine_cycles;
    if (!r.accepted || conn == nullptr ||
        conn->state != ConnState::kEstablished)
      continue;
    ++stats_.bulk_messages;
    stats_.bytes_sealed += meta[i].second;
    crypto::Bytes body = r.header;
    body.insert(body.end(), r.payload.begin(), r.payload.end());
    conn->link->send_message(make_msg(MsgKind::kBulk, body));
  }

  // Queues drained: admit deferred application data, in id order (may
  // schedule another flush at this same instant).
  ids.clear();
  ids.swap(deferred_ids_);
  std::sort(ids.begin(), ids.end());
  for (const std::uint32_t id : ids) {
    Connection* found = find(id);
    if (found == nullptr) continue;
    Connection& conn = *found;
    while (!conn.deferred_appdata.empty() &&
           conn.state == ConnState::kEstablished &&
           conn.pending_echo_bytes < config_.max_pending_echo_bytes) {
      const crypto::Bytes records = std::move(conn.deferred_appdata.front());
      conn.deferred_appdata.pop_front();
      conn.deferred_bytes -= std::min(conn.deferred_bytes, records.size());
      process_appdata(conn, records);
    }
    if (!conn.deferred_appdata.empty() &&
        conn.state == ConnState::kEstablished)
      deferred_ids_.push_back(id);  // still backpressured: stays listed
    else
      conn.deferred_listed = false;
  }
}

void SecureSessionServer::arm_idle_timer(Connection& conn) {
  const std::uint32_t id = conn.id;
  conn.idle_timer = queue_.schedule_at(
      net::sat_add_time(conn.last_activity, config_.idle_timeout_us),
      [this, id] {
        Connection* c = find(id);
        if (c == nullptr) return;
        c->idle_timer = 0;
        if (c->state != ConnState::kEstablished) return;
        if (queue_.now() >=
            net::sat_add_time(c->last_activity, config_.idle_timeout_us)) {
          close_connection(*c, &ServerStats::idle_closes);
          c->link->shutdown();  // stop acking a peer we gave up on
        } else {
          arm_idle_timer(*c);  // activity since scheduling: re-arm
        }
      });
}

void SecureSessionServer::close_connection(
    Connection& conn, std::uint64_t ServerStats::*counter) {
  if (conn.handshake_timer) queue_.cancel(conn.handshake_timer);
  if (conn.idle_timer) queue_.cancel(conn.idle_timer);
  conn.handshake_timer = conn.idle_timer = 0;
  if (conn.state == ConnState::kEstablished) --established_count_;
  conn.state = ConnState::kClosed;
  ++(stats_.*counter);
  // The link stays up (unless the caller shuts it down): a graceful
  // close still owes the peer the retransmission of its kCloseAck.
  schedule_retire(conn.id);
}

void SecureSessionServer::fail_connection(Connection& conn,
                                          const std::string& reason) {
  (void)reason;
  if (conn.state == ConnState::kFailed || conn.state == ConnState::kClosed)
    return;  // already terminal: keep the counters single-entry
  if (conn.handshake_timer) queue_.cancel(conn.handshake_timer);
  if (conn.idle_timer) queue_.cancel(conn.idle_timer);
  conn.handshake_timer = conn.idle_timer = 0;
  if (conn.state == ConnState::kHandshake) {
    ++stats_.handshakes_failed;
    leave_handshake(conn);
    account_handshake_work(conn);  // attacker-induced work is work done
  } else if (conn.state == ConnState::kEstablished) {
    --established_count_;
  }
  conn.state = ConnState::kFailed;
  ++stats_.failed_connections;
  conn.link->shutdown();
  schedule_retire(conn.id);
}

void SecureSessionServer::on_link_error(std::uint32_t id,
                                        const std::string& reason) {
  Connection* conn = find(id);
  if (conn == nullptr) return;
  if (conn->state == ConnState::kClosed ||
      conn->state == ConnState::kFailed) {
    // A finished connection's link died (say, the peer hung up after a
    // graceful close): nothing holds the entry any more.
    schedule_retire(id);
    return;
  }
  if (conn->state == ConnState::kShed) {
    // The refusal could not be delivered (e.g. blackout): the shed
    // connection just goes quiet; it was already accounted as refused.
    conn->state = ConnState::kClosed;
    conn->link->shutdown();
    schedule_retire(id);
    return;
  }
  ++stats_.link_failures;
  fail_connection(*conn, reason);
}

}  // namespace mapsec::server
