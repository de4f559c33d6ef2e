// Sharded serving tier: routing stability, the {1,2,4,8}-shard
// determinism matrix (fleet transcript digest byte-identical for cache
// and ticket resumption, plain and under a chaos handshake flood),
// per-shard/fleet conservation, fleet-wide admission through the
// epoch-barrier FleetControl snapshot, and the modeled-core scaling that
// motivates the tier: N shards = N cores, so aggregate handshake rate
// rises with the shard count while the transcript stays fixed.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "mapsec/chaos/campaign.hpp"
#include "mapsec/crypto/rng.hpp"
#include "mapsec/platform/processor.hpp"
#include "mapsec/server/load_gen.hpp"
#include "mapsec/server/sharded_server.hpp"
#include "mapsec/server/session_cache.hpp"

namespace mapsec::server {
namespace {

using protocol::CipherSuite;

constexpr std::uint64_t kNow = 1'050'000'000;  // ~2003

// ------------------------------------------------------- shard routing

TEST(ShardRoutingTest, PureFunctionOfKeyAndShardCount) {
  for (std::uint32_t key : {0u, 1u, 7u, 0xF000u, 0xBAD3u, 0xFFFFFFFFu}) {
    for (std::size_t shards : {1u, 2u, 4u, 8u}) {
      const std::size_t s = shard_for(key, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, shard_for(key, shards));  // stable on re-ask
    }
    EXPECT_EQ(shard_for(key, 1), 0u);
  }
}

TEST(ShardRoutingTest, SpreadsKeysAcrossShards) {
  // FNV-1a over 256 consecutive keys must not pile onto one shard.
  std::size_t per_shard[8] = {};
  for (std::uint32_t key = 0; key < 256; ++key)
    ++per_shard[shard_for(key, 8)];
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_GT(per_shard[s], 8u) << "shard " << s;
    EXPECT_LT(per_shard[s], 96u) << "shard " << s;
  }
}

TEST(ShardRoutingTest, WireIdsAreNonZeroAndDistinct) {
  std::set<std::uint32_t> seen;
  for (std::uint32_t key = 0; key < 64; ++key)
    for (std::uint32_t attempt = 0; attempt < 4; ++attempt) {
      const std::uint32_t id = make_wire_id(key, attempt);
      EXPECT_NE(id, 0u);
      EXPECT_TRUE(seen.insert(id).second) << key << "/" << attempt;
    }
}

// ------------------------------------------------------- serving fixture

class ShardedServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    crypto::HmacDrbg rng(0x5E53);
    ca_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    server_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    ca_ = new protocol::CertificateAuthority("ShardRoot", *ca_key_, 0,
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

  static LoadConfig sharded_load(std::size_t clients, std::size_t shards) {
    LoadConfig cfg;
    cfg.num_clients = clients;
    cfg.shards = shards;
    return cfg;
  }

  static crypto::RsaKeyPair* ca_key_;
  static crypto::RsaKeyPair* server_key_;
  static protocol::CertificateAuthority* ca_;
  static protocol::Certificate* server_cert_;
};

crypto::RsaKeyPair* ShardedServerTest::ca_key_ = nullptr;
crypto::RsaKeyPair* ShardedServerTest::server_key_ = nullptr;
protocol::CertificateAuthority* ShardedServerTest::ca_ = nullptr;
protocol::Certificate* ShardedServerTest::server_cert_ = nullptr;

// ------------------------------------------- determinism matrix (digest)

/// One run of the sharded harness at a given shard count; `tickets`
/// selects stateless-ticket resumption over the session cache.
LoadReport run_fleet(const ShardedServerTest* /*tag*/, ServerConfig server,
                     ClientConfig client, std::size_t clients,
                     std::size_t shards, bool tickets) {
  LoadConfig load;
  load.num_clients = clients;
  load.channel.loss_rate = 0.02;  // a little weather: retries happen
  load.shards = shards;
  client.sessions = 2;  // second session resumes
  BoundedSessionCache::Config cache;
  if (tickets) {
    server.ticket.enabled = true;
    client.use_session_tickets = true;
    cache.capacity = 0;
  } else {
    cache.capacity = 4'096;
  }
  LoadGenerator gen(load, server, client, cache);
  return gen.run();
}

class ShardedDeterminismTest
    : public ShardedServerTest,
      public ::testing::WithParamInterface<bool> {};

TEST_P(ShardedDeterminismTest, DigestIdenticalForAnyShardCount) {
  const bool tickets = GetParam();
  const LoadReport base = run_fleet(
      this, server_config(), client_config(), 48, 1, tickets);
  ASSERT_EQ(base.sessions_completed, 96u);
  ASSERT_EQ(base.echo_mismatches, 0u);
  ASSERT_FALSE(base.fleet_digest.empty());
  EXPECT_TRUE(base.conserved);
  if (tickets)
    EXPECT_GT(base.server.ticket_resumptions, 0u);
  else
    EXPECT_GT(base.cache.hits, 0u);

  for (std::size_t shards : {2u, 4u, 8u}) {
    const LoadReport r = run_fleet(
        this, server_config(), client_config(), 48, shards, tickets);
    EXPECT_EQ(r.fleet_digest, base.fleet_digest)
        << shards << " shards, tickets=" << tickets;
    EXPECT_EQ(r.sessions_completed, base.sessions_completed);
    EXPECT_EQ(r.server.handshakes_completed,
              base.server.handshakes_completed);
    EXPECT_TRUE(r.conserved) << shards << " shards";
    EXPECT_EQ(r.shards.size(), shards);
  }
}

INSTANTIATE_TEST_SUITE_P(ResumptionModes, ShardedDeterminismTest,
                         ::testing::Values(false, true));

TEST_F(ShardedServerTest, RerunIsBitIdentical) {
  const LoadReport a = run_fleet(
      this, server_config(), client_config(), 24, 4, false);
  const LoadReport b = run_fleet(
      this, server_config(), client_config(), 24, 4, false);
  EXPECT_EQ(a.fleet_digest, b.fleet_digest);
  EXPECT_EQ(a.server.handshakes_completed,
            b.server.handshakes_completed);
  EXPECT_EQ(a.epochs, b.epochs);
}

// --------------------------------------------- per-shard sums (satellite)

TEST_F(ShardedServerTest, FleetTotalsEqualPerShardSumsInSoak) {
  ClientConfig client = client_config();
  client.sessions = 2;
  LoadConfig load = sharded_load(64, 4);
  LoadGenerator gen(load, server_config(), client,
                           {.capacity = 4'096});
  const LoadReport report = gen.run();

  ASSERT_EQ(report.shards.size(), 4u);
  ASSERT_TRUE(report.conserved);

  ServerStats sum;
  std::size_t cache_bytes = 0;
  std::uint64_t cache_hits = 0;
  std::size_t latencies = 0;
  for (const ShardBreakdown& b : report.shards) {
    sum.connections_accepted += b.server.connections_accepted;
    sum.handshakes_completed += b.server.handshakes_completed;
    sum.full_handshakes += b.server.full_handshakes;
    sum.resumed_handshakes += b.server.resumed_handshakes;
    sum.bytes_opened += b.server.bytes_opened;
    sum.bytes_sealed += b.server.bytes_sealed;
    sum.graceful_closes += b.server.graceful_closes;
    cache_bytes += b.cache_state_bytes;
    cache_hits += b.cache.hits;
    latencies += b.server.handshake_latency.count();
    EXPECT_EQ(b.server.handshake_latency.count(),
              b.server.handshakes_completed);
  }
  const ServerStats& fleet = report.server;
  EXPECT_EQ(fleet.connections_accepted, sum.connections_accepted);
  EXPECT_EQ(fleet.handshakes_completed, sum.handshakes_completed);
  EXPECT_EQ(fleet.full_handshakes, sum.full_handshakes);
  EXPECT_EQ(fleet.resumed_handshakes, sum.resumed_handshakes);
  EXPECT_EQ(fleet.bytes_opened, sum.bytes_opened);
  EXPECT_EQ(fleet.bytes_sealed, sum.bytes_sealed);
  EXPECT_EQ(fleet.graceful_closes, sum.graceful_closes);
  EXPECT_EQ(report.cache_state_bytes, cache_bytes);
  EXPECT_EQ(report.cache.hits, cache_hits);
  EXPECT_EQ(fleet.handshake_latency.count(), latencies);

  // Work actually spread: with 64 clients over 4 shards, no shard is idle.
  for (const ShardBreakdown& b : report.shards)
    EXPECT_GT(b.server.connections_accepted, 0u) << "shard " << b.shard;
}

// ------------------------------------------------ fleet admission control

TEST_F(ShardedServerTest, AdmissionWatermarksAreFleetWide) {
  // Fleet cap of 6 open connections across 4 shards: a per-shard
  // interpretation would admit up to 24. The modeled core makes each
  // handshake slow (5 ms per flight), so open connections pile up across
  // many slice barriers and the barrier-frozen snapshot starts refusing
  // fleet-wide.
  ServerConfig server = server_config();
  server.max_open_connections = 6;
  server.core.us_per_flight = 5'000.0;
  ClientConfig client = client_config();
  client.retry_budget = 1;  // refused = failed, no retry churn
  LoadConfig load = sharded_load(32, 4);
  load.mean_interarrival_us = 500;
  load.poisson_arrivals = false;
  load.slice_us = 1'000;
  LoadGenerator gen(load, server, client, {.capacity = 256});
  const LoadReport report = gen.run();

  EXPECT_GT(report.server.refused_connections, 0u);
  EXPECT_TRUE(report.conserved);
  // The refusals must be a fleet decision: the fleet cap (6) is below
  // what any per-shard interpretation (6 per shard x 4) would shed at.
  EXPECT_LT(report.sessions_completed, 32u);
  EXPECT_GT(report.sessions_completed, 0u);
}

// ------------------------------------------------- modeled-core scaling

TEST_F(ShardedServerTest, CoreModelScalesAggregateRateWithShards) {
  // Core-bound world: 2 ms of core per handshake flight, no think time,
  // one payload — the run's duration is the core backlog, so N shards
  // (= N modeled cores) drain it ~N times faster.
  ServerConfig server = server_config();
  server.core.us_per_flight = 2'000.0;
  ClientConfig client = client_config();
  client.think_time_us = 0;
  client.payloads_per_session = 1;

  double rate1 = 0;
  crypto::Bytes digest1;
  for (std::size_t shards : {1u, 4u}) {
    LoadConfig load = sharded_load(48, shards);
    load.mean_interarrival_us = 100;  // offered load beats one core
    load.poisson_arrivals = false;
    LoadGenerator gen(load, server, client, {.capacity = 256});
    const LoadReport report = gen.run();
    ASSERT_EQ(report.sessions_completed, 48u) << shards;
    ASSERT_GT(report.server.core_busy_us, 0.0) << shards;
    const double rate = report.full_handshakes_per_s;
    if (shards == 1) {
      rate1 = rate;
      digest1 = report.fleet_digest;
    } else {
      // Four cores drain the same offered load in less simulated time —
      // and the transcript still matches bit-for-bit.
      EXPECT_GT(rate, rate1 * 1.5);
      EXPECT_EQ(report.fleet_digest, digest1);
    }
  }
}

// ------------------------------------------------------ chaos integration

TEST_F(ShardedServerTest, FloodCampaignDigestIdenticalAcrossShardCounts) {
  chaos::CampaignConfig base;
  base.honest_clients = 16;
  base.server = server_config();
  base.server.max_handshake_queue = 12;
  base.client = client_config();
  base.cache.capacity = 256;
  chaos::HandshakeFlood flood;
  flood.at_us = 5'000;
  flood.attackers = 2;
  flood.connections_each = 10;
  flood.interarrival_us = 2'000;
  base.faults.push_back(flood);

  crypto::Bytes digest;
  std::uint64_t attack_connections = 0;
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    chaos::CampaignConfig cfg = base;
    cfg.shards = shards;
    chaos::CampaignRunner runner(cfg);
    const chaos::CampaignReport report = runner.run();
    ASSERT_TRUE(report.invariants_ok())
        << shards << " shards: " << report.invariant_failures;
    EXPECT_GT(report.attack_connections, 0u);
    if (shards == 1) {
      digest = report.fleet_digest;
      attack_connections = report.attack_connections;
      ASSERT_FALSE(digest.empty());
    } else {
      EXPECT_EQ(report.fleet_digest, digest) << shards << " shards";
      EXPECT_EQ(report.attack_connections, attack_connections);
    }
  }
}

TEST_F(ShardedServerTest, ShardedCampaignRejectsGlobalFaults) {
  chaos::CampaignConfig cfg;
  cfg.honest_clients = 2;
  cfg.server = server_config();
  cfg.client = client_config();
  cfg.shards = 2;
  cfg.faults.push_back(chaos::DispatchFailure{.at_us = 1'000});
  chaos::CampaignRunner runner(cfg);
  EXPECT_THROW(runner.run(), std::invalid_argument);
}

// ------------------------------------------------ cross-harness witness

TEST_F(ShardedServerTest, CampaignAndLoadGeneratorAgreeOnOneFleet) {
  // One seed, fleet, server and client config through both sim harnesses
  // on both placements (single loop and a one-shard tier): a fault-free
  // campaign is a load run, so the session outcome and the fleet digest
  // must match across all four.
  constexpr std::uint64_t kSeed = 0x5EEDF1EE;
  constexpr std::size_t kClients = 12;
  ClientConfig client = client_config();
  client.sessions = 2;
  const BoundedSessionCache::Config cache{.capacity = 256};

  std::vector<FleetTally> runs;
  for (std::size_t shards : {0u, 1u}) {
    chaos::CampaignConfig campaign;
    campaign.seed = kSeed;
    campaign.shards = shards;
    campaign.honest_clients = kClients;
    campaign.mean_interarrival_us = 1'000;
    campaign.server = server_config();
    campaign.client = client;
    campaign.cache = cache;
    const chaos::CampaignReport c = chaos::CampaignRunner(campaign).run();
    EXPECT_TRUE(c.invariants_ok())
        << shards << " shards: " << c.invariant_failures;
    runs.push_back(c);

    LoadConfig load;
    load.seed = kSeed;
    load.shards = shards;
    load.num_clients = kClients;
    load.mean_interarrival_us = 1'000;
    const LoadReport l =
        LoadGenerator(load, server_config(), client, cache).run();
    EXPECT_TRUE(l.conserved) << shards << " shards";
    runs.push_back(l);
  }

  ASSERT_EQ(runs.front().sessions_completed, kClients * 2);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].fleet_digest, runs.front().fleet_digest) << "run " << i;
    EXPECT_EQ(runs[i].sessions_attempted, runs.front().sessions_attempted)
        << "run " << i;
    EXPECT_EQ(runs[i].sessions_completed, runs.front().sessions_completed)
        << "run " << i;
    EXPECT_EQ(runs[i].echo_mismatches, 0u) << "run " << i;
  }
}

// ------------------------------------------------ ticket-rotation control

TEST_F(ShardedServerTest, TicketRotationAppliesToEveryShardInLockstep) {
  ServerConfig server = server_config();
  server.ticket.enabled = true;
  ClientConfig client = client_config();
  client.use_session_tickets = true;
  client.sessions = 2;

  for (std::size_t shards : {1u, 4u}) {
    ShardedServerConfig scfg;
    scfg.shards = shards;
    scfg.server = server;
    ShardedServer tier(scfg);
    tier.rotate_ticket_keys(10'000);
    tier.rotate_ticket_keys(20'000);
    const ShardedServer::RunStats rs = tier.run();
    EXPECT_EQ(rs.control_applied, 2u * shards);
    const ServerStats fleet = tier.fleet_stats();
    EXPECT_EQ(fleet.ticket_key_rotations, 2u * shards);
  }
}

}  // namespace
}  // namespace mapsec::server
