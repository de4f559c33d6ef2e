#include "traced_fleet.hpp"

#include <chrono>
#include <utility>

#include "common.hpp"
#include "mapsec/crypto/rng.hpp"
#include "mapsec/server/load_gen.hpp"

namespace sockbench {

using namespace mapsec;

void ServerTotals::add(const server::ServerStats& s) {
  accepted += s.connections_accepted;
  handshakes_completed += s.handshakes_completed;
  resumed += s.resumed_handshakes;
  rsa_private_ops += s.handshake_rsa_private_ops;
  tickets_issued += s.tickets_issued;
  ticket_resumptions += s.ticket_resumptions;
  bulk_messages += s.bulk_messages;
}

ServerTotals totals_of(const server::SocketServerFleet::Report& r) {
  ServerTotals t;
  for (const auto& shard : r.shards) t.add(shard.server);
  t.sockets = r.sockets;
  t.arena_allocations = r.arena.allocations;
  t.arena_reserved = r.arena.reserved;
  t.conserved = r.conserved;
  return t;
}

namespace {

/// One shard's span log. Single-threaded: every call runs on the shard.
class Tracer {
 public:
  std::vector<Span> spans;

  /// Returns the enclosing rx span, for rx_end to restore.
  int rx_begin(std::uint32_t conn, std::size_t bytes) {
    const int outer = current_rx_;
    current_rx_ = static_cast<int>(spans.size());
    Span s;
    s.kind = SpanKind::kRx;
    s.conn = conn;
    s.parent = static_cast<std::uint32_t>(outer + 1);
    s.bytes = static_cast<std::uint32_t>(bytes);
    s.start_ns = now_ns();
    spans.push_back(s);
    return outer;
  }
  void rx_end(int outer) {
    spans[static_cast<std::size_t>(current_rx_)].end_ns = now_ns();
    current_rx_ = outer;
  }

  void tx(std::uint32_t conn, std::size_t bytes, std::int64_t start,
          std::int64_t end) {
    // A link ACK is 5 bytes; anything longer carries session data.
    if (bytes > 5 && current_rx_ >= 0 &&
        spans[static_cast<std::size_t>(current_rx_)].conn == conn)
      spans[static_cast<std::size_t>(current_rx_)].flag = true;
    Span s;
    s.kind = SpanKind::kTx;
    s.conn = conn;
    s.parent = static_cast<std::uint32_t>(current_rx_ + 1);
    s.bytes = static_cast<std::uint32_t>(bytes);
    s.start_ns = start;
    s.end_ns = end;
    spans.push_back(s);
  }

  void cache(bool lookup, bool hit, std::int64_t start, std::int64_t end) {
    Span s;
    s.kind = SpanKind::kCache;
    s.flag = hit;
    s.lookup = lookup;
    s.parent = static_cast<std::uint32_t>(current_rx_ + 1);
    if (current_rx_ >= 0)
      s.conn = spans[static_cast<std::size_t>(current_rx_)].conn;
    s.start_ns = start;
    s.end_ns = end;
    spans.push_back(s);
  }

  void session(std::uint32_t conn, std::int64_t start, std::int64_t end) {
    Span s;
    s.kind = SpanKind::kSession;
    s.conn = conn;
    s.start_ns = start;
    s.end_ns = end;
    spans.push_back(s);
  }

 private:
  int current_rx_ = -1;
};

/// Server -> client half: times each send (FrameCodec framing and slab
/// enqueue; the writev happens at the end of the reactor turn).
class TracedTx final : public net::Channel {
 public:
  TracedTx(net::Channel& inner, Tracer& tracer, std::uint32_t conn)
      : inner_(inner), tracer_(tracer), conn_(conn) {}
  void set_receiver(std::function<void(crypto::ConstBytes)> fn) override {
    inner_.set_receiver(std::move(fn));
  }
  void send(crypto::ConstBytes frame) override {
    const std::int64_t start = now_ns();
    inner_.send(frame);
    tracer_.tx(conn_, frame.size(), start, now_ns());
  }
  void set_on_channel_error(
      std::function<void(const std::string&)> fn) override {
    inner_.set_on_channel_error(std::move(fn));
  }

 private:
  net::Channel& inner_;
  Tracer& tracer_;
  std::uint32_t conn_;
};

/// Client -> server half: times the receiver the server installs.
class TracedRx final : public net::Channel {
 public:
  TracedRx(net::Channel& inner, Tracer& tracer, std::uint32_t conn)
      : inner_(inner), tracer_(tracer), conn_(conn) {}
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
  void deliver(crypto::ConstBytes f) {
    const auto fn = on_frame_;  // the receiver may detach itself
    const int outer = tracer_.rx_begin(conn_, f.size());
    fn(f);
    tracer_.rx_end(outer);
  }

  net::Channel& inner_;
  Tracer& tracer_;
  std::uint32_t conn_;
  std::function<void(crypto::ConstBytes)> on_frame_;
};

class TracedCache final : public protocol::SessionCache {
 public:
  TracedCache(server::BoundedSessionCache& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  void store(const crypto::Bytes& session_id, Entry entry) override {
    const std::int64_t start = now_ns();
    inner_.store(session_id, std::move(entry));
    tracer_.cache(false, false, start, now_ns());
  }
  const Entry* lookup(const crypto::Bytes& session_id) override {
    const std::int64_t start = now_ns();
    const Entry* e = inner_.lookup(session_id);
    tracer_.cache(true, e != nullptr, start, now_ns());
    return e;
  }
  std::size_t size() const override { return inner_.size(); }
  void clear() override { inner_.clear(); }

 private:
  server::BoundedSessionCache& inner_;
  Tracer& tracer_;
};

}  // namespace

struct TracedFleet::Shard {
  struct Open {
    std::unique_ptr<net::SocketEndpoint> endpoint;
    std::uint32_t conn = 0;
    std::int64_t accepted_ns = 0;
  };

  // Declaration order is teardown order in reverse: the server (whose
  // links reference the decorated halves) dies before the halves, the
  // halves before the endpoints, the endpoints before arena and reactor.
  net::MonotonicClock clock;
  net::Reactor reactor;
  net::BufferArena arena;
  std::unique_ptr<crypto::HmacDrbg> rng;
  std::unique_ptr<server::BoundedSessionCache> cache;
  Tracer tracer;
  std::unique_ptr<TracedCache> traced_cache;
  std::unique_ptr<net::SocketListener> listener;
  std::vector<Open> open;
  std::vector<std::unique_ptr<net::Channel>> halves;
  net::SocketStats closed_stats;
  std::unique_ptr<server::SecureSessionServer> server;
  std::uint32_t next_conn = 0;
  std::atomic<std::int64_t> cpu_ns{0};
  std::atomic<std::int64_t> wall_ns{0};
  std::atomic<std::int64_t> poll_cpu_ns{0};
  std::atomic<std::int64_t> poll_wall_ns{0};
  std::thread thread;

  explicit Shard(net::SimTime origin_us) : clock(origin_us), reactor(clock) {}

  void sweep() {
    // As in SocketServerFleet: a closed endpoint's link already failed or
    // detached, so the endpoint can go.
    for (auto it = open.begin(); it != open.end();) {
      if (!it->endpoint->open()) {
        closed_stats += it->endpoint->stats();
        tracer.session(it->conn, it->accepted_ns, now_ns());
        it = open.erase(it);
      } else {
        ++it;
      }
    }
  }
};

TracedFleet::TracedFleet(
    const server::SocketFleetConfig& config,
    const server::ServerConfig& server_template,
    const server::BoundedSessionCache::Config& cache_config)
    : config_(config) {
  // Partition the cache budget exactly like SocketServerFleet.
  server::BoundedSessionCache::Config part = cache_config;
  if (part.capacity > 0)
    part.capacity = (part.capacity + config_.shards - 1) / config_.shards;

  for (std::size_t s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<Shard>(config_.clock_origin_us);
    Shard* sh = shard.get();
    sh->arena.reserve(config_.reserve_slabs_per_shard);
    sh->rng = std::make_unique<crypto::HmacDrbg>(
        server::fleet_server_seed(config_.seed) + s);
    sh->cache = std::make_unique<server::BoundedSessionCache>(
        sh->reactor.queue(), part);
    sh->traced_cache = std::make_unique<TracedCache>(*sh->cache, sh->tracer);
    server::ServerConfig cfg = server_template;
    cfg.handshake.rng = sh->rng.get();
    sh->server = std::make_unique<server::SecureSessionServer>(
        sh->reactor.queue(), std::move(cfg), sh->traced_cache.get());
    sh->listener = std::make_unique<net::SocketListener>(
        sh->reactor, sh->arena, config_.socket, /*port=*/0);
    sh->listener->set_on_accept([sh](std::unique_ptr<net::SocketEndpoint> ep) {
      const std::uint32_t conn = sh->next_conn++;
      auto tx = std::make_unique<TracedTx>(ep->tx(), sh->tracer, conn);
      auto rx = std::make_unique<TracedRx>(ep->rx(), sh->tracer, conn);
      sh->server->accept(*tx, *rx);
      sh->halves.push_back(std::move(tx));
      sh->halves.push_back(std::move(rx));
      sh->open.push_back({std::move(ep), conn, now_ns()});
    });
    shards_.push_back(std::move(shard));
  }
}

TracedFleet::~TracedFleet() { stop(); }

bool TracedFleet::ok() const {
  for (const auto& shard : shards_)
    if (!shard->listener->ok()) return false;
  return true;
}

std::vector<std::uint16_t> TracedFleet::ports() const {
  std::vector<std::uint16_t> out;
  for (const auto& shard : shards_) out.push_back(shard->listener->port());
  return out;
}

void TracedFleet::start() {
  if (started_) return;
  started_ = true;
  for (auto& shard : shards_) {
    Shard* sh = shard.get();
    sh->thread = std::thread([this, sh] { run_shard(*sh); });
  }
}

void TracedFleet::run_shard(Shard& sh) {
  const std::int64_t cpu_begin = thread_cpu_ns();
  const std::int64_t wall_begin = now_ns();
  std::int64_t poll_cpu = 0;
  std::int64_t poll_wall = 0;
  auto turn = [&] {
    const std::int64_t w0 = now_ns();
    const std::int64_t c0 = thread_cpu_ns();
    sh.reactor.poll(5'000);
    const std::int64_t c1 = thread_cpu_ns();
    const std::int64_t w1 = now_ns();
    poll_cpu += c1 - c0;
    poll_wall += w1 - w0;
    sh.sweep();
    sh.poll_cpu_ns.store(poll_cpu, std::memory_order_relaxed);
    sh.poll_wall_ns.store(poll_wall, std::memory_order_relaxed);
    sh.cpu_ns.store(c1 - cpu_begin, std::memory_order_relaxed);
    sh.wall_ns.store(w1 - wall_begin, std::memory_order_relaxed);
  };
  while (!stop_.load(std::memory_order_acquire)) turn();
  // The same bounded drain grace as SocketServerFleet, so the books see
  // every connection resolve.
  const auto grace_end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (!sh.open.empty() && std::chrono::steady_clock::now() < grace_end)
    turn();
}

ShardClocks TracedFleet::clocks() const {
  ShardClocks c;
  for (const auto& sh : shards_) {
    c.cpu_ns += sh->cpu_ns.load(std::memory_order_relaxed);
    c.wall_ns += sh->wall_ns.load(std::memory_order_relaxed);
    c.poll_cpu_ns += sh->poll_cpu_ns.load(std::memory_order_relaxed);
    c.poll_wall_ns += sh->poll_wall_ns.load(std::memory_order_relaxed);
  }
  return c;
}

TracedFleet::Report TracedFleet::stop() {
  Report report;
  if (stopped_) return report;
  stopped_ = true;
  if (started_) {
    stop_.store(true, std::memory_order_release);
    for (auto& shard : shards_) shard->reactor.post([] {});
    for (auto& shard : shards_)
      if (shard->thread.joinable()) shard->thread.join();
  }
  const std::int64_t end = now_ns();
  for (auto& sh : shards_) {
    report.totals.add(sh->server->stats());
    report.totals.sockets += sh->closed_stats;
    for (const auto& o : sh->open) {
      report.totals.sockets += o.endpoint->stats();
      sh->tracer.session(o.conn, o.accepted_ns, end);
    }
    report.totals.arena_allocations += sh->arena.stats().allocations;
    report.totals.arena_reserved += config_.reserve_slabs_per_shard;
    report.totals.conserved =
        report.totals.conserved && sh->server->stats_conserved();
    report.spans.push_back(std::move(sh->tracer.spans));
  }
  return report;
}

}  // namespace sockbench
