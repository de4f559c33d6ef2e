#include "loadgen.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "mapsec/protocol/record.hpp"
#include "mapsec/server/load_gen.hpp"
#include "mapsec/server/sharded_server.hpp"
#include "mapsec/server/wire.hpp"

namespace sockbench {

using namespace mapsec;

Tally& Tally::operator+=(const Tally& o) {
  txns += o.txns;
  sessions += o.sessions;
  completed += o.completed;
  failed += o.failed;
  echo_bad += o.echo_bad;
  resumed += o.resumed;
  extra_attempts += o.extra_attempts;
  bytes_echoed += o.bytes_echoed;
  hellos += o.hellos;
  suite_mismatches += o.suite_mismatches;
  link_acks += o.link_acks;
  link_segments += o.link_segments;
  link_retransmits += o.link_retransmits;
  return *this;
}

namespace {

// Taps on one connection attempt's channel halves. Both forward every
// frame unchanged. The flights they read start a fresh link segment:
// DATA kind(1) | seq(4) | frame length(4) | MsgKind(1) | body.

/// What the taps of one attempt record into the running transaction.
struct AttemptLog {
  Tally& tally;
  std::vector<double>& handshake_ms;
  protocol::CipherSuite expected;
  std::int64_t started_ns = 0;
};

/// Client -> server: the first application-data frame goes out in the
/// reactor turn the handshake completes in, so its send time stamps the
/// session as established on the wall clock.
class HandshakeTap final : public net::Channel {
 public:
  HandshakeTap(net::Channel& inner, AttemptLog& log)
      : inner_(inner), log_(log) {}

  void set_receiver(std::function<void(crypto::ConstBytes)> fn) override {
    inner_.set_receiver(std::move(fn));
  }
  void send(crypto::ConstBytes f) override {
    if (!stamped_ && f.size() > 9 && f[0] == 0x01 &&
        f[9] == static_cast<std::uint8_t>(server::MsgKind::kAppData)) {
      stamped_ = true;
      log_.handshake_ms.push_back(
          static_cast<double>(now_ns() - log_.started_ns) / 1e6);
    }
    inner_.send(f);
  }
  void set_on_channel_error(
      std::function<void(const std::string&)> fn) override {
    inner_.set_on_channel_error(std::move(fn));
  }

 private:
  net::Channel& inner_;
  AttemptLog& log_;
  bool stamped_ = false;
};

/// Server -> client: reads the negotiated suite out of the server's first
/// handshake flight, whose body is record type(1) version(2) length(2) |
/// handshake type(1) length(3) | version(2) | random(32) | sid_len(1) |
/// sid | suite(2).
class SuiteTap final : public net::Channel {
 public:
  SuiteTap(net::Channel& inner, AttemptLog& log) : inner_(inner), log_(log) {}

  void set_receiver(std::function<void(crypto::ConstBytes)> fn) override {
    on_frame_ = std::move(fn);
    if (on_frame_)
      inner_.set_receiver([this](crypto::ConstBytes f) { deliver(f); });
    else
      inner_.set_receiver(nullptr);
  }
  void send(crypto::ConstBytes frame) override { inner_.send(frame); }
  void set_on_channel_error(
      std::function<void(const std::string&)> fn) override {
    inner_.set_on_channel_error(std::move(fn));
  }

 private:
  static constexpr std::size_t kSidLenAt = 53;
  static constexpr std::uint8_t kServerHello = 2;

  void deliver(crypto::ConstBytes f) {
    if (!seen_) inspect(f);
    const auto fn = on_frame_;  // the receiver may detach itself
    fn(f);
  }

  void inspect(crypto::ConstBytes f) {
    if (f.size() < 5 || f[0] != 0x01 || crypto::load_be32(f.data() + 1) != 0)
      return;  // an ACK, or not the flight's first segment
    seen_ = true;
    if (f.size() <= kSidLenAt ||
        f[9] != static_cast<std::uint8_t>(server::MsgKind::kHandshake) ||
        f[10] != static_cast<std::uint8_t>(protocol::RecordType::kHandshake) ||
        f[15] != kServerHello)
      return;
    const std::size_t suite_at = kSidLenAt + 1 + f[kSidLenAt];
    if (f.size() < suite_at + 2) return;
    ++log_.tally.hellos;
    const auto suite = static_cast<protocol::CipherSuite>(
        (std::uint16_t{f[suite_at]} << 8) | f[suite_at + 1]);
    if (suite != log_.expected) ++log_.tally.suite_mismatches;
  }

  net::Channel& inner_;
  AttemptLog& log_;
  std::function<void(crypto::ConstBytes)> on_frame_;
  bool seen_ = false;
};

struct Attempt {
  Attempt(net::SocketEndpoint& ep, AttemptLog entry)
      : log(entry), tx(ep.tx(), log), rx(ep.rx(), log) {}
  AttemptLog log;
  HandshakeTap tx;
  SuiteTap rx;
};

void add_link_stats(Tally& t, const net::ReliableLink& link) {
  t.link_acks += link.stats().acks_sent;
  t.link_segments += link.stats().segments_sent;
  t.link_retransmits += link.stats().retransmits;
}

}  // namespace

struct ClosedLoop::Slot {
  bool bulk = false;
  std::size_t shard = 0;
  // Members die bottom-up: the client (owning the current link) before
  // the taps and endpoints that link reads from.
  std::vector<std::unique_ptr<net::SocketEndpoint>> endpoints;
  std::vector<std::unique_ptr<Attempt>> attempts;
  std::unique_ptr<server::SessionClient> client;
  net::ReliableLink* link = nullptr;  // current attempt's, owned by client
  // The running transaction.
  Tally current;
  std::vector<double> handshake_ms;
  std::int64_t started_ns = 0;
  std::int64_t finished_ns = 0;  // 0 while the client runs
};

ClosedLoop::ClosedLoop(const Workload& workload,
                       const server::ClientConfig& client_template,
                       const server::ServerConfig& server_template,
                       std::uint64_t seed, std::vector<std::uint16_t> ports,
                       bool keep_spans)
    : workload_(workload),
      seed_(seed),
      ports_(std::move(ports)),
      keep_spans_(keep_spans),
      short_cfg_(client_template),
      bulk_cfg_(client_template),
      reactor_(clock_),
      engine_rng_(server::fleet_engine_seed(seed)),
      engine_(server_template.engine_profile, &engine_rng_),
      spare_ids_(ports_.size()),
      connects_per_shard_(ports_.size(), 0) {
  // Closed loop: a client's next step waits only for the server.
  short_cfg_.think_time_us = 0;
  short_cfg_.handshake.offered_suites = {kShortSuite};
  short_cfg_.payload_bytes = kShortPayload;
  short_cfg_.payloads_per_session = 1;
  short_cfg_.sessions = workload.sessions_per_txn;

  bulk_cfg_.think_time_us = 0;
  bulk_cfg_.handshake.offered_suites = {kBulkSuite};
  bulk_cfg_.payload_bytes = kBulkPayload;
  bulk_cfg_.payloads_per_session = kBulkPayloads;
  bulk_cfg_.sessions = 1;

  arena_.reserve(64);
  engine_.load_program("ccmp-in", engine::ccmp_inbound_program());
  for (int i = 0; i < kSlots; ++i) {
    auto slot = std::make_unique<Slot>();
    slot->bulk = i < workload.bulk_slots;
    slot->shard = static_cast<std::size_t>(i) % ports_.size();
    slots_.push_back(std::move(slot));
  }
}

ClosedLoop::~ClosedLoop() = default;

std::unique_ptr<net::ReliableLink> ClosedLoop::connect(Slot& slot,
                                                       std::uint32_t gid) {
  // A retry or the next session of the transaction: the previous link is
  // shut down but still alive, and its endpoint can close.
  if (slot.link != nullptr) add_link_stats(slot.current, *slot.link);
  if (!slot.endpoints.empty()) slot.endpoints.back()->close_quiet();

  const std::size_t shard = server::shard_for(gid, ports_.size());
  auto ep = net::connect_endpoint(reactor_, arena_, socket_cfg_, ports_[shard]);
  if (!ep) throw std::runtime_error("cannot create a client socket");
  auto attempt = std::make_unique<Attempt>(
      *ep, AttemptLog{slot.current, slot.handshake_ms,
                      slot.bulk ? kBulkSuite : kShortSuite, now_ns()});
  const server::ClientConfig& cfg = slot.bulk ? bulk_cfg_ : short_cfg_;
  auto link = std::make_unique<net::ReliableLink>(
      reactor_.queue(), attempt->tx, attempt->rx, cfg.link);
  slot.link = link.get();
  connects_.push_back({static_cast<std::uint32_t>(shard),
                       connects_per_shard_[shard]++, gid});
  slot.attempts.push_back(std::move(attempt));
  slot.endpoints.push_back(std::move(ep));
  return link;
}

std::uint32_t ClosedLoop::take_id(std::size_t shard) {
  while (spare_ids_[shard].empty()) {
    const std::uint32_t gid = next_gid_++;
    spare_ids_[server::shard_for(gid, ports_.size())].push_back(gid);
  }
  const std::uint32_t gid = spare_ids_[shard].front();
  spare_ids_[shard].pop_front();
  return gid;
}

void ClosedLoop::start_client(Slot& slot) {
  const std::uint32_t gid = take_id(slot.shard);
  server::ClientConfig cfg = slot.bulk ? bulk_cfg_ : short_cfg_;
  cfg.use_session_tickets = workload_.tickets && gid % 2 == 0;
  slot.current = Tally{};
  slot.handshake_ms.clear();
  slot.finished_ns = 0;
  slot.client = std::make_unique<server::SessionClient>(
      reactor_.queue(), std::move(cfg), gid, engine_,
      server::fleet_client_seed(seed_, gid));
  Slot* s = &slot;
  slot.client->set_on_finished(
      [s](server::SessionClient&) { s->finished_ns = now_ns(); });
  slot.client->set_connect(
      [this, s, gid](server::SessionClient&) { return connect(*s, gid); });
  slot.started_ns = now_ns();
  slot.client->start();
}

void ClosedLoop::finish_client(Slot& slot, GenResult& result, bool in_window) {
  Tally t = slot.current;
  if (slot.link != nullptr) add_link_stats(t, *slot.link);
  t.txns = 1;
  t.bytes_echoed = slot.client->bytes_echoed();
  for (const server::SessionRecord& r : slot.client->sessions()) {
    ++t.sessions;
    if (r.completed) ++t.completed;
    if (r.failed) ++t.failed;
    if (!r.echo_ok) ++t.echo_bad;
    if (r.resumed) ++t.resumed;
    if (r.attempts > 1)
      t.extra_attempts += static_cast<std::uint64_t>(r.attempts - 1);
  }
  result.all += t;
  // Latencies are the short transactions' only: bulk sessions are a
  // second population whose mix with the short one would set the median.
  if (in_window) {
    result.window += t;
    result.finishes.push_back({slot.finished_ns, t.completed, t.bytes_echoed});
    if (!slot.bulk) {
      result.txn_ms.push_back(
          static_cast<double>(slot.finished_ns - slot.started_ns) / 1e6);
      result.handshake_ms.insert(result.handshake_ms.end(),
                                 slot.handshake_ms.begin(),
                                 slot.handshake_ms.end());
    }
  }
  if (keep_spans_)
    result.txns.push_back({slot.client->id(), slot.bulk, slot.started_ns,
                           slot.finished_ns});
  // The client first: a finished client still holds its link, which
  // reads from the taps and endpoints.
  slot.client.reset();
  slot.link = nullptr;
  slot.attempts.clear();
  slot.endpoints.clear();
}

GenResult ClosedLoop::run(double warmup_s, double seconds,
                          const std::function<void(bool)>& on_edge) {
  constexpr double kDrainBudgetS = 20;
  GenResult result;
  const std::int64_t begin = now_ns();
  const auto t0_due = begin + static_cast<std::int64_t>(warmup_s * 1e9);
  const auto t1_due = t0_due + static_cast<std::int64_t>(seconds * 1e9);
  const auto drain_end =
      t1_due + static_cast<std::int64_t>(kDrainBudgetS * 1e9);
  bool measuring = false;
  bool refilling = true;
  std::int64_t cpu0 = 0;

  for (auto& slot : slots_) start_client(*slot);
  for (;;) {
    reactor_.poll(1'000);
    const std::int64_t now = now_ns();
    if (!measuring && refilling && now >= t0_due) {
      measuring = true;
      result.t0_ns = now;
      cpu0 = thread_cpu_ns();
      if (on_edge) on_edge(true);
    }
    const bool closing = measuring && now >= t1_due;
    if (closing) {
      refilling = false;
      result.t1_ns = now;
      result.gen_cpu_s = static_cast<double>(thread_cpu_ns() - cpu0) / 1e9;
      if (on_edge) on_edge(false);
    }
    bool busy = false;
    for (auto& slot : slots_) {
      if (!slot->client) continue;
      if (slot->finished_ns == 0) {
        busy = true;
        continue;
      }
      const bool in_window = measuring && slot->finished_ns >= result.t0_ns;
      finish_client(*slot, result, in_window);
      if (refilling) {
        start_client(*slot);
        busy = true;
      }
    }
    if (closing) measuring = false;
    if (!refilling && !busy) {
      result.drained = true;
      break;
    }
    if (now >= drain_end) break;
  }
  // Finish whatever the drain budget cut off, so nothing outlives us
  // half-counted.
  for (auto& slot : slots_)
    if (slot->client) {
      slot->finished_ns = now_ns();
      finish_client(*slot, result, false);
    }
  if (keep_spans_) result.connects = connects_;
  return result;
}

}  // namespace sockbench
