// mapsec::server tests: bounded resumption cache, handshakes over lossy
// channels, retry/backoff clean failure, backpressure, idle reaping,
// connection retirement, constant-size stats and their merge, and the
// 1000-session soak whose transcript must be bit-identical for any
// PacketPipeline worker count.
#include <gtest/gtest.h>

#include <algorithm>

#include "mapsec/crypto/rng.hpp"
#include "mapsec/platform/processor.hpp"
#include "mapsec/server/load_gen.hpp"
#include "mapsec/server/session_cache.hpp"

namespace mapsec::server {
namespace {

using crypto::Bytes;
using protocol::CipherSuite;

constexpr std::uint64_t kNow = 1'050'000'000;  // ~2003

// ---------------------------------------------------- BoundedSessionCache

protocol::SessionCache::Entry entry(std::uint8_t tag) {
  protocol::SessionCache::Entry e;
  e.master_secret = Bytes(48, tag);
  e.suite = CipherSuite::kRsaAes128CbcSha;
  return e;
}

TEST(BoundedCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  net::EventQueue clock;
  BoundedSessionCache cache(clock, {.capacity = 3, .ttl_us = 0});
  cache.store(Bytes{1}, entry(1));
  cache.store(Bytes{2}, entry(2));
  cache.store(Bytes{3}, entry(3));
  ASSERT_NE(cache.lookup(Bytes{1}), nullptr);  // refresh {1}'s recency
  cache.store(Bytes{4}, entry(4));             // evicts {2}, not {1}

  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.lookup(Bytes{2}), nullptr);
  EXPECT_NE(cache.lookup(Bytes{1}), nullptr);
  EXPECT_NE(cache.lookup(Bytes{4}), nullptr);
  EXPECT_EQ(cache.stats().lru_evictions, 1u);
  EXPECT_EQ(cache.stats().insertions, 4u);
}

TEST(BoundedCacheTest, TtlExpiresOnTheReadPathWithoutRefresh) {
  net::EventQueue clock;
  BoundedSessionCache cache(clock, {.capacity = 8, .ttl_us = 1'000});
  cache.store(Bytes{1}, entry(1));

  clock.run_until(600);
  ASSERT_NE(cache.lookup(Bytes{1}), nullptr);  // alive, hit counted

  // A hit refreshes recency, not the deadline: at t=1200 the entry is
  // past its absolute lifetime even though it was read at t=600.
  clock.run_until(1'200);
  EXPECT_EQ(cache.lookup(Bytes{1}), nullptr);
  EXPECT_EQ(cache.stats().ttl_evictions, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(BoundedCacheTest, StoreRefreshesExistingEntryInPlace) {
  net::EventQueue clock;
  BoundedSessionCache cache(clock, {.capacity = 2, .ttl_us = 0});
  cache.store(Bytes{1}, entry(1));
  cache.store(Bytes{2}, entry(2));
  cache.store(Bytes{1}, entry(9));  // overwrite, no eviction
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().lru_evictions, 0u);
  const auto* e = cache.lookup(Bytes{1});
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->master_secret, Bytes(48, 9));
}

TEST(BoundedCacheTest, ZeroCapacityStoresNothing) {
  net::EventQueue clock;
  BoundedSessionCache cache(clock, {.capacity = 0, .ttl_us = 0});
  cache.store(Bytes{1}, entry(1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(Bytes{1}), nullptr);
}

TEST(BoundedCacheTest, HitAfterEvictMissesSeparateThrashFromStrangers) {
  net::EventQueue clock;
  BoundedSessionCache cache(clock, {.capacity = 2, .ttl_us = 0});
  cache.store(Bytes{1}, entry(1));
  cache.store(Bytes{2}, entry(2));
  cache.store(Bytes{3}, entry(3));  // evicts {1}

  // {1} WAS cached: this miss is eviction thrash (a lost resumption).
  EXPECT_EQ(cache.lookup(Bytes{1}), nullptr);
  EXPECT_EQ(cache.stats().hit_after_evict_misses, 1u);
  // {9} was never stored: an ordinary miss, not thrash.
  EXPECT_EQ(cache.lookup(Bytes{9}), nullptr);
  EXPECT_EQ(cache.stats().hit_after_evict_misses, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);

  // Re-storing {1} clears its evicted mark: a later miss (after a fresh
  // eviction) is attributed to THAT eviction, counted once per loss.
  cache.store(Bytes{1}, entry(1));  // evicts {2}
  EXPECT_NE(cache.lookup(Bytes{1}), nullptr);
  EXPECT_EQ(cache.lookup(Bytes{2}), nullptr);
  EXPECT_EQ(cache.stats().hit_after_evict_misses, 2u);
}

TEST(BoundedCacheTest, TtlReapCountsAsThrashOnRetry) {
  net::EventQueue clock;
  BoundedSessionCache cache(clock, {.capacity = 8, .ttl_us = 1'000});
  cache.store(Bytes{1}, entry(1));
  clock.run_until(2'000);
  EXPECT_EQ(cache.lookup(Bytes{1}), nullptr);  // TTL reap (miss #1)
  EXPECT_EQ(cache.stats().ttl_evictions, 1u);
  // The client retries with the same id: now a hit-after-evict miss.
  EXPECT_EQ(cache.lookup(Bytes{1}), nullptr);
  EXPECT_EQ(cache.stats().hit_after_evict_misses, 1u);
}

TEST(BoundedCacheTest, ResumptionStateBytesGrowWithUsers) {
  net::EventQueue clock;
  BoundedSessionCache cache(clock, {.capacity = 1'000, .ttl_us = 0});
  EXPECT_EQ(cache.resumption_state_bytes(), 0u);
  for (std::uint8_t i = 1; i <= 100; ++i)
    cache.store(Bytes{i}, entry(i));
  const std::size_t at100 = cache.resumption_state_bytes();
  EXPECT_GT(at100, 100u * 48u);  // at least the master secrets
  for (std::uint8_t i = 101; i <= 200; ++i)
    cache.store(Bytes{i}, entry(i));
  // O(users): double the entries, double the pinned state.
  EXPECT_EQ(cache.resumption_state_bytes(), 2 * at100);
}

// ------------------------------------------------------------ ServerStats

// Members and operator+= are both generated from one field list; this
// walks the same list, so a field the merge mishandles cannot hide.
TEST(ServerStatsTest, MergeCoversEveryField) {
  // Every member is a listed 8-byte scalar or one of the three latency
  // histograms: a member declared outside the list changes the size.
#define COUNT_FIELD(type, name, merge) +1
  constexpr std::size_t kFields = 0 MAPSEC_SERVER_STATS_FIELDS(COUNT_FIELD);
#undef COUNT_FIELD
  static_assert(sizeof(ServerStats) ==
                kFields * 8 + 3 * sizeof(analysis::LatencyHistogram));

  // Field k holds k on one side and 100 + k on the other: distinct
  // everywhere, and a sum (100 + 2k) never equals a max (100 + k).
  ServerStats a;
  ServerStats b;
  double k = 0;
#define SET_FIELD(type, name, merge) \
  ++k;                               \
  a.name = static_cast<type>(k);     \
  b.name = static_cast<type>(100 + k);
  MAPSEC_SERVER_STATS_FIELDS(SET_FIELD)
#undef SET_FIELD
  a.handshake_latency.record(1'000);
  b.handshake_latency.record(9'000);
  a.full_handshake_latency.record(2'000);
  b.resumed_handshake_latency.record(3'000);

  ServerStats ab = a;
  ab += b;
  ServerStats ba = b;
  ba += a;
  const auto sum = [](double x, double y) { return x + y; };
  const auto max = [](double x, double y) { return std::max(x, y); };
  k = 0;
#define CHECK_FIELD(type, name, merge)                              \
  ++k;                                                              \
  EXPECT_EQ(ab.name, static_cast<type>(merge(k, 100 + k))) << #name; \
  EXPECT_EQ(ba.name, ab.name) << #name;
  MAPSEC_SERVER_STATS_FIELDS(CHECK_FIELD)
#undef CHECK_FIELD
  EXPECT_EQ(k, static_cast<double>(kFields));

  EXPECT_EQ(ab.handshake_latency.count(), 2u);
  EXPECT_DOUBLE_EQ(ab.handshake_latency.min(), 1'000.0);
  EXPECT_DOUBLE_EQ(ab.handshake_latency.max(), 9'000.0);
  EXPECT_EQ(ab.full_handshake_latency.count(), 1u);
  EXPECT_EQ(ab.resumed_handshake_latency.count(), 1u);
  EXPECT_EQ(ab.handshake_latency, ba.handshake_latency);
}

// ------------------------------------------------------- serving fixture

/// Shared PKI: one CA, one server identity (RSA-512 for speed).
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    crypto::HmacDrbg rng(0x5E53);
    ca_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    server_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    ca_ = new protocol::CertificateAuthority("SoakRoot", *ca_key_, 0,
                                             kNow * 2);
    server_cert_ = new protocol::Certificate(
        ca_->issue("server.test", server_key_->pub, 0, kNow * 2));
  }
  static void TearDownTestSuite() {
    delete server_cert_;
    delete ca_;
    delete server_key_;
    delete ca_key_;
  }

  static ServerConfig server_config() {
    ServerConfig cfg;
    cfg.handshake.now = kNow;
    cfg.handshake.cert_chain = {*server_cert_};
    cfg.handshake.private_key = &server_key_->priv;
    return cfg;
  }

  static ClientConfig client_config() {
    ClientConfig cfg;
    cfg.handshake.now = kNow;
    cfg.handshake.trusted_roots = {ca_->root()};
    cfg.handshake.offered_suites = {CipherSuite::kRsaAes128CbcSha};
    return cfg;
  }

  static LoadConfig load_config(std::size_t clients) {
    LoadConfig cfg;
    cfg.num_clients = clients;
    return cfg;
  }

  static crypto::RsaKeyPair* ca_key_;
  static crypto::RsaKeyPair* server_key_;
  static protocol::CertificateAuthority* ca_;
  static protocol::Certificate* server_cert_;
};

crypto::RsaKeyPair* ServerTest::ca_key_ = nullptr;
crypto::RsaKeyPair* ServerTest::server_key_ = nullptr;
protocol::CertificateAuthority* ServerTest::ca_ = nullptr;
protocol::Certificate* ServerTest::server_cert_ = nullptr;

// Loss sweep: sessions must complete (after retries if need be) at 0%,
// 5% and 20% frame loss with duplication and reordering on top.
class ServerLossTest : public ServerTest,
                       public ::testing::WithParamInterface<double> {};

TEST_P(ServerLossTest, SessionsCompleteUnderImpairments) {
  LoadConfig load = load_config(12);
  load.channel.loss_rate = GetParam();
  load.channel.dup_rate = GetParam() / 2;
  load.channel.reorder_rate = GetParam();
  load.seed = 0xB0A7 + static_cast<std::uint64_t>(GetParam() * 100);

  LoadGenerator gen(load, server_config(), client_config(), {});
  const LoadReport report = gen.run();

  EXPECT_EQ(report.sessions_attempted, 12u);
  EXPECT_EQ(report.sessions_completed, 12u);
  EXPECT_EQ(report.sessions_failed, 0u);
  EXPECT_EQ(report.echo_mismatches, 0u);
  EXPECT_EQ(report.server.handshakes_completed, 12u);
  if (GetParam() == 0.0) {
    EXPECT_EQ(report.connection_attempts, 12u);  // no retries needed
  }
}

INSTANTIATE_TEST_SUITE_P(LossSweep, ServerLossTest,
                         ::testing::Values(0.0, 0.05, 0.20));

TEST_F(ServerTest, SecondSessionResumesThroughTheCache) {
  ClientConfig client = client_config();
  client.sessions = 2;
  LoadGenerator gen(load_config(3), server_config(), client, {});
  const LoadReport report = gen.run();

  EXPECT_EQ(report.sessions_completed, 6u);
  EXPECT_EQ(report.server.full_handshakes, 3u);
  EXPECT_EQ(report.server.resumed_handshakes, 3u);
  EXPECT_EQ(report.cache.hits, 3u);
  EXPECT_DOUBLE_EQ(report.server.resumption_rate(), 0.5);
  // Resumption skips the RSA exchange: it must be visibly cheaper.
  ASSERT_EQ(report.server.handshake_latency.count(), 6u);
}

// Per-session bookkeeping is O(1): a server's stats hold the same heap
// after 10 handshakes as after 2000, while still counting every one.
TEST_F(ServerTest, StatsFootprintIsIndependentOfHandshakeCount) {
  ClientConfig client = client_config();
  client.sessions = 2;
  FleetWorld world(load_config(1'000), server_config(), client,
                   {.capacity = 1'000, .ttl_us = 0});
  SecureSessionServer& srv = world.server(0);
  net::EventQueue& queue = world.queue(0);
  // Every other member is a scalar (ServerStatsTest pins that).
  const auto heap_bytes = [](const ServerStats& s) {
    return s.handshake_latency.heap_bytes() +
           s.full_handshake_latency.heap_bytes() +
           s.resumed_handshake_latency.heap_bytes();
  };

  while (!queue.empty() && srv.stats().handshakes_completed < 10)
    queue.run_until(queue.now() + 1'000);
  const ServerStats early = srv.stats();
  ASSERT_GE(early.handshakes_completed, 10u);
  ASSERT_LT(early.handshakes_completed, 100u);

  queue.run_all();
  const ServerStats late = srv.stats();
  ASSERT_GE(late.handshakes_completed, 2'000u);
  EXPECT_EQ(heap_bytes(late), heap_bytes(early));
  EXPECT_EQ(late.handshake_latency.count(), late.handshakes_completed);
  EXPECT_EQ(late.full_handshake_latency.count(), late.full_handshakes);
  EXPECT_EQ(late.resumed_handshake_latency.count(),
            late.resumed_handshakes);
}

TEST_F(ServerTest, ClientGivesUpCleanlyAfterRetryBudget) {
  ClientConfig client = client_config();
  client.retry_budget = 3;
  client.handshake_timeout_us = 500'000;
  client.link.max_retries = 2;
  client.link.initial_rto_us = 20'000;

  LoadConfig load = load_config(1);
  load.channel.loss_rate = 1.0;  // black hole

  LoadGenerator gen(load, server_config(), client, {});
  const LoadReport report = gen.run();

  EXPECT_EQ(report.sessions_attempted, 1u);
  EXPECT_EQ(report.sessions_completed, 0u);
  EXPECT_EQ(report.sessions_failed, 1u);
  EXPECT_EQ(report.connection_attempts, 3u);  // exactly the budget
  EXPECT_EQ(report.server.handshakes_completed, 0u);
  EXPECT_GT(report.server.handshakes_failed, 0u);  // server timed out too
}

TEST_F(ServerTest, BackpressureDefersInsteadOfDropping) {
  ClientConfig client = client_config();
  client.payloads_per_session = 8;
  client.payload_bytes = 256;
  client.think_time_us = 0;  // burst: all payloads in one instant

  ServerConfig server = server_config();
  server.max_pending_echo_bytes = 300;  // < two payloads

  LoadGenerator gen(load_config(2), server, client, {});
  const LoadReport report = gen.run();

  EXPECT_EQ(report.sessions_completed, 2u);
  EXPECT_EQ(report.echo_mismatches, 0u);
  EXPECT_GT(report.server.backpressure_deferrals, 0u);
  EXPECT_EQ(report.server.bytes_opened, 2u * 8u * 256u);
  EXPECT_EQ(report.server.bytes_sealed, 2u * 8u * 256u);
}

// The echo is sealed in the instant its record arrives, not after a
// flush timer: over a fixed-latency channel with no jitter, the client
// gets its echo back exactly one round trip after sending the record.
TEST_F(ServerTest, EchoIsSealedInTheInstantItArrives) {
  constexpr net::SimTime kLatency = 2'000;
  net::EventQueue queue;
  net::ChannelConfig fixed;
  fixed.latency_us = kLatency;
  // Declared before the server and the client link, which detach from
  // it when they are destroyed.
  net::DuplexChannel channel(queue, fixed, fixed, 0xEC40);
  crypto::HmacDrbg server_rng(0xEC40);
  ServerConfig config = server_config();
  config.handshake.rng = &server_rng;
  SecureSessionServer server(queue, config, nullptr);
  server.accept(channel.b_to_a(), channel.a_to_b());
  net::ReliableLink link(queue, channel.a_to_b(), channel.b_to_a(), {});

  crypto::HmacDrbg client_rng(0xEC41);
  protocol::HandshakeConfig handshake = client_config().handshake;
  handshake.rng = &client_rng;
  protocol::TlsClient tls(handshake);
  const Bytes payload(64, 0x5A);
  net::SimTime sent_at = 0;
  net::SimTime echoed_at = 0;
  link.set_on_message([&](crypto::ConstBytes msg) {
    const auto kind = static_cast<MsgKind>(msg[0]);
    if (kind == MsgKind::kBulk && echoed_at == 0) echoed_at = queue.now();
    if (kind != MsgKind::kHandshake || tls.established()) return;
    const protocol::HandshakeStep step =
        protocol::step_handshake(tls, msg.subspan(1));
    if (!step.output.empty())
      link.send_message(make_msg(MsgKind::kHandshake, step.output));
    if (step.established) {
      sent_at = queue.now();
      link.send_message(make_msg(MsgKind::kAppData, tls.send_data(payload)));
    }
  });
  link.send_message(
      make_msg(MsgKind::kHandshake, protocol::step_handshake(tls, {}).output));
  queue.run_until(1'000'000);

  ASSERT_TRUE(tls.established());
  ASSERT_NE(echoed_at, 0u);
  EXPECT_EQ(echoed_at - sent_at, 2 * kLatency);
  EXPECT_EQ(server.stats().bulk_messages, 1u);
}

TEST_F(ServerTest, IdleTimeoutReapsLingeringClients) {
  ClientConfig client = client_config();
  client.linger = true;  // handshake, then silence

  ServerConfig server = server_config();
  server.idle_timeout_us = 2'000'000;

  LoadGenerator gen(load_config(2), server, client, {});
  const LoadReport report = gen.run();

  EXPECT_EQ(report.sessions_completed, 2u);
  EXPECT_EQ(report.server.idle_closes, 2u);
  EXPECT_EQ(report.server.graceful_closes, 0u);
}

TEST_F(ServerTest, ReportPricesLoadAgainstTheAppliance) {
  LoadGenerator gen(load_config(4), server_config(), client_config(), {});
  const LoadReport report = gen.run();

  EXPECT_GT(report.sim_duration_s, 0.0);
  EXPECT_GT(report.full_handshakes_per_s, 0.0);
  EXPECT_GT(report.record_mbps, 0.0);
  EXPECT_LE(report.handshake_p50_ms, report.handshake_p99_ms);
  EXPECT_EQ(report.fleet_digest.size(), 32u);
  // Figure 3's point: required serving MIPS dwarfs the appliance budget.
  EXPECT_GT(report.gap.required_mips, 0.0);
  EXPECT_GT(report.gap.sessions_per_charge, 0.0);
}

// The acceptance soak: >= 1000 sessions through one server over a 5%-loss
// reordering channel. Every session completes (handshake + byte-exact
// echo) or fails cleanly inside its retry budget, and the run's fleet
// digest is pinned: it is the value every PacketPipeline worker count
// produced while the pipeline still had a worker pool.
TEST_F(ServerTest, SoakIsBitIdenticalAcrossWorkerCounts) {
  ClientConfig client = client_config();
  client.sessions = 2;
  client.payloads_per_session = 2;
  client.payload_bytes = 128;

  LoadConfig load = load_config(500);  // 500 clients x 2 sessions
  load.channel.loss_rate = 0.05;
  load.channel.reorder_rate = 0.10;
  load.channel.dup_rate = 0.02;
  load.seed = 0x50AC;

  LoadGenerator gen(load, server_config(), client,
                    {.capacity = 600, .ttl_us = 0});
  const LoadReport one = gen.run();
  EXPECT_EQ(one.sessions_attempted, 1'000u);
  EXPECT_EQ(one.sessions_completed + one.sessions_failed,
            one.sessions_attempted);
  EXPECT_GT(one.sessions_completed, 990u);  // 5% loss, retries absorb it
  EXPECT_EQ(one.echo_mismatches, 0u);
  EXPECT_GT(one.server.resumed_handshakes, 0u);
  // Pinned: the 1- and 3-worker runs agreed on this digest.
  EXPECT_EQ(crypto::to_hex(one.fleet_digest),
            "04857ea8f96898e7c63fadac05bbaf3db6d540be28d15c64099203c48f76ed47");
}

// Retirement: in a soak where every connection fails (handshake timeout
// under loss), idles out or is refused, the table holds only the open
// connections at every step, the pipeline holds an SA for exactly the
// established ones, and ids are never reused.
TEST_F(ServerTest, RetiredConnectionsLeaveTheTableAndThePipeline) {
  ClientConfig client = client_config();
  client.linger = true;  // handshake, then silence: the idle timeout reaps

  ServerConfig server = server_config();
  server.idle_timeout_us = 100'000;
  server.handshake_timeout_us = 30'000;  // one lost flight misses it
  server.max_open_connections = 3;
  server.refusal_linger_us = 1;

  LoadConfig load = load_config(60);
  load.mean_interarrival_us = 2'000;
  load.channel.loss_rate = 0.05;
  load.seed = 0x2E71;

  std::unique_ptr<net::DuplexChannel> late;  // outlives the world
  FleetWorld world(load, server, client, {});
  SecureSessionServer& srv = world.server(0);
  net::EventQueue& queue = world.queue(0);
  std::size_t peak_open = 0;
  while (!queue.empty()) {
    queue.run_until(queue.now() + 5'000);
    peak_open = std::max(peak_open, srv.open_connections());
    ASSERT_EQ(srv.tracked_connections(), srv.open_connections())
        << "at t=" << queue.now();
    ASSERT_EQ(srv.pipeline().sa_count(), srv.established_connections())
        << "at t=" << queue.now();
  }
  const ServerStats& stats = srv.stats();
  EXPECT_GT(peak_open, 0u);
  EXPECT_GT(stats.idle_closes, 0u);
  EXPECT_GT(stats.failed_connections, 0u);
  EXPECT_GT(stats.refused_connections, 0u);
  EXPECT_EQ(stats.graceful_closes, 0u);
  EXPECT_TRUE(srv.stats_conserved());
  EXPECT_EQ(srv.tracked_connections(), 0u);
  EXPECT_EQ(srv.pipeline().sa_count(), 0u);

  // Every id 0..accepted-1 was handed out; the next one is new.
  late = std::make_unique<net::DuplexChannel>(queue, load.channel,
                                              load.channel, 0x1A7E);
  const std::uint64_t accepted = stats.connections_accepted;
  EXPECT_EQ(srv.accept(late->b_to_a(), late->a_to_b()), accepted);
  EXPECT_EQ(srv.tracked_connections(), 1u);
}

}  // namespace
}  // namespace mapsec::server
