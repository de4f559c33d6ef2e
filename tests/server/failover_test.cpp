// Supervised shard failure & recovery: crash/hang/drain injection through
// the chaos campaign, ticket-based zero-state failover (no honest session
// lost, reconnects resume without a public-key op), deterministic rejoin
// (the crashed run's fleet digest is byte-identical to a rerun AND to the
// undisturbed run — payloads are pure functions of (seed, session, index)
// and each index is digested exactly once), and the conservation of the
// per-shard books across a world's death and warm rejoin.
#include <gtest/gtest.h>

#include <vector>

#include "mapsec/analysis/stats.hpp"
#include "mapsec/chaos/campaign.hpp"
#include "mapsec/crypto/rng.hpp"
#include "mapsec/platform/gap.hpp"
#include "mapsec/platform/processor.hpp"
#include "mapsec/platform/workload.hpp"
#include "mapsec/server/load_gen.hpp"
#include "mapsec/server/supervisor.hpp"

namespace mapsec::server {
namespace {

using protocol::CipherSuite;

constexpr std::uint64_t kNow = 1'050'000'000;  // ~2003

class FailoverTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    crypto::HmacDrbg rng(0x5E53);
    ca_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    server_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    ca_ = new protocol::CertificateAuthority("FailRoot", *ca_key_, 0,
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
    cfg.ticket.enabled = true;
    return cfg;
  }

  static ClientConfig client_config() {
    ClientConfig cfg;
    cfg.handshake.now = kNow;
    cfg.handshake.trusted_roots = {ca_->root()};
    cfg.handshake.offered_suites = {CipherSuite::kRsaAes128CbcSha};
    cfg.use_session_tickets = true;
    cfg.sessions = 3;
    cfg.retry_budget = 6;  // room for the failover reconnect attempt
    return cfg;
  }

  /// A supervised campaign: ticket-mode fleet, spread arrivals so the
  /// crash lands mid-flood with sessions in flight on the victim.
  static chaos::CampaignConfig campaign(std::size_t shards) {
    chaos::CampaignConfig cfg;
    cfg.shards = shards;
    cfg.honest_clients = 24;
    cfg.mean_interarrival_us = 4'000;
    cfg.server = server_config();
    cfg.client = client_config();
    cfg.cache.capacity = 0;  // stateless: nothing for a crash to lose
    return cfg;
  }

  static crypto::RsaKeyPair* ca_key_;
  static crypto::RsaKeyPair* server_key_;
  static protocol::CertificateAuthority* ca_;
  static protocol::Certificate* server_cert_;
};

crypto::RsaKeyPair* FailoverTest::ca_key_ = nullptr;
crypto::RsaKeyPair* FailoverTest::server_key_ = nullptr;
protocol::CertificateAuthority* FailoverTest::ca_ = nullptr;
protocol::Certificate* FailoverTest::server_cert_ = nullptr;

// ------------------------------------------------- crash: zero loss

TEST_F(FailoverTest, CrashMidFloodLosesNoHonestSessions) {
  chaos::CampaignConfig cfg = campaign(4);
  cfg.faults.push_back(chaos::ShardCrash{
      .at_us = 120'000, .shard = 1, .repair_us = 300'000});
  const chaos::CampaignReport r = chaos::CampaignRunner(cfg).run();

  EXPECT_TRUE(r.invariants_ok()) << r.invariant_failures;
  EXPECT_EQ(r.shard_crashes, 1u);
  EXPECT_EQ(r.shard_rejoins, 1u);
  EXPECT_GT(r.clients_migrated, 0u);
  EXPECT_EQ(r.sessions_failed, 0u);
  EXPECT_EQ(r.sessions_completed, r.sessions_attempted);
  EXPECT_EQ(r.echo_mismatches, 0u);
  // Someone was mid-session on the victim, and every such reconnect made
  // it back (the blackout samples are the SLO input).
  EXPECT_GT(r.client_reconnects, 0u);
  EXPECT_LE(r.failover_resumes, r.client_reconnects);
  EXPECT_GT(r.blackout_p99_ms, 0.0);
  EXPECT_EQ(r.missed_heartbeats, 0u);
}

TEST_F(FailoverTest, CrashWithoutRepairStaysDown) {
  chaos::CampaignConfig cfg = campaign(4);
  cfg.faults.push_back(chaos::ShardCrash{
      .at_us = 120'000, .shard = 2, .repair_us = 0});
  const chaos::CampaignReport r = chaos::CampaignRunner(cfg).run();

  EXPECT_TRUE(r.invariants_ok()) << r.invariant_failures;
  EXPECT_EQ(r.shard_crashes, 1u);
  EXPECT_EQ(r.shard_rejoins, 0u);
  EXPECT_EQ(r.sessions_failed, 0u);  // survivors carry the victim's keys
  EXPECT_EQ(r.sessions_completed, r.sessions_attempted);
}

// ------------------------------------- determinism: the digest headline

TEST_F(FailoverTest, CrashRecoveryTranscriptIsDeterministic) {
  chaos::CampaignConfig cfg = campaign(4);
  cfg.faults.push_back(chaos::ShardCrash{
      .at_us = 120'000, .shard = 1, .repair_us = 300'000});
  const chaos::CampaignReport a = chaos::CampaignRunner(cfg).run();
  const chaos::CampaignReport b = chaos::CampaignRunner(cfg).run();

  ASSERT_TRUE(a.invariants_ok()) << a.invariant_failures;
  EXPECT_EQ(a.fleet_digest, b.fleet_digest);
  EXPECT_EQ(a.client_reconnects, b.client_reconnects);
  EXPECT_EQ(a.sessions_completed, b.sessions_completed);
  EXPECT_EQ(a.connections_killed, b.connections_killed);
}

TEST_F(FailoverTest, CrashedRunDigestMatchesUndisturbedRun) {
  // Payload purity + digest-once: a session interrupted by a crash and
  // resumed on a survivor folds exactly the bytes an undisturbed run
  // would have — so the crashed fleet's digest EQUALS the no-crash
  // digest, and is invariant across surviving-shard counts too.
  const chaos::CampaignReport calm =
      chaos::CampaignRunner(campaign(4)).run();
  ASSERT_TRUE(calm.invariants_ok()) << calm.invariant_failures;
  ASSERT_EQ(calm.sessions_failed, 0u);

  for (const std::size_t shards : {2u, 4u}) {
    chaos::CampaignConfig cfg = campaign(shards);
    cfg.faults.push_back(chaos::ShardCrash{
        .at_us = 120'000, .shard = 1, .repair_us = 300'000});
    const chaos::CampaignReport r = chaos::CampaignRunner(cfg).run();
    ASSERT_TRUE(r.invariants_ok())
        << shards << " shards: " << r.invariant_failures;
    EXPECT_EQ(r.sessions_failed, 0u) << shards << " shards";
    EXPECT_EQ(r.fleet_digest, calm.fleet_digest) << shards << " shards";
  }
}

// ----------------------------------------------------- hang: watchdog

TEST_F(FailoverTest, HangIsDetectedAndEscalatedToKill) {
  chaos::CampaignConfig cfg = campaign(4);
  cfg.watchdog_wall_ms = 50;  // keep the one real wall-clock wait short
  cfg.faults.push_back(chaos::ShardHang{
      .at_us = 120'000, .shard = 1, .repair_us = 300'000});
  const chaos::CampaignReport r = chaos::CampaignRunner(cfg).run();

  EXPECT_TRUE(r.invariants_ok()) << r.invariant_failures;
  EXPECT_EQ(r.shard_hangs_detected, 1u);
  EXPECT_EQ(r.shard_crashes, 0u);  // escalation is its own verb
  EXPECT_EQ(r.shard_rejoins, 1u);
  EXPECT_EQ(r.sessions_failed, 0u);
  EXPECT_EQ(r.sessions_completed, r.sessions_attempted);
}

TEST_F(FailoverTest, HangEscalationIsDeterministic) {
  chaos::CampaignConfig cfg = campaign(2);
  cfg.watchdog_wall_ms = 50;
  cfg.faults.push_back(chaos::ShardHang{
      .at_us = 100'000, .shard = 0, .repair_us = 200'000});
  const chaos::CampaignReport a = chaos::CampaignRunner(cfg).run();
  const chaos::CampaignReport b = chaos::CampaignRunner(cfg).run();
  ASSERT_TRUE(a.invariants_ok()) << a.invariant_failures;
  EXPECT_EQ(a.fleet_digest, b.fleet_digest);
  EXPECT_EQ(a.shard_hangs_detected, b.shard_hangs_detected);
  EXPECT_EQ(a.connections_killed, b.connections_killed);
}

// ----------------------------------------------------- graceful drain

TEST_F(FailoverTest, GracefulDrainKillsNothing) {
  chaos::CampaignConfig cfg = campaign(4);
  cfg.faults.push_back(chaos::ShardCrash{.at_us = 120'000,
                                         .shard = 1,
                                         .repair_us = 300'000,
                                         .graceful = true,
                                         .drain_deadline_us = 60'000'000});
  const chaos::CampaignReport r = chaos::CampaignRunner(cfg).run();

  EXPECT_TRUE(r.invariants_ok()) << r.invariant_failures;
  EXPECT_EQ(r.shard_drains, 1u);
  EXPECT_EQ(r.shard_crashes, 0u);
  EXPECT_EQ(r.shard_rejoins, 1u);
  // The deadline was generous: every open connection finished in place,
  // so nothing was ever hard-killed.
  EXPECT_EQ(r.connections_killed, 0u);
  EXPECT_EQ(r.sessions_failed, 0u);
  EXPECT_EQ(r.sessions_completed, r.sessions_attempted);
}

// ---------------------------------------- shard-scoped stall satellites

TEST_F(FailoverTest, ShardScopedStallsAreOutputInvariant) {
  const chaos::CampaignReport calm =
      chaos::CampaignRunner(campaign(2)).run();
  ASSERT_TRUE(calm.invariants_ok()) << calm.invariant_failures;

  chaos::CampaignConfig cfg = campaign(2);
  cfg.faults.push_back(chaos::ShardWorkerStall{
      .at_us = 50'000, .shard = 0, .stall_ns = 100'000});
  cfg.faults.push_back(chaos::ShardOffloadStall{
      .at_us = 50'000, .shard = 1, .all_workers = true});
  const chaos::CampaignReport r = chaos::CampaignRunner(cfg).run();

  EXPECT_TRUE(r.invariants_ok()) << r.invariant_failures;
  // Stalls cost host time, never simulated outcomes.
  EXPECT_EQ(r.fleet_digest, calm.fleet_digest);
  EXPECT_EQ(r.sessions_completed, calm.sessions_completed);
}

// ---------------------------------------------- fault-plan validation

TEST_F(FailoverTest, GlobalFaultsRejectedWithScopedAlternative) {
  chaos::CampaignConfig cfg = campaign(2);
  cfg.faults.push_back(chaos::WorkerStall{.at_us = 1'000});
  try {
    chaos::CampaignRunner(cfg).run();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message must point at the shard-scoped replacement.
    EXPECT_NE(std::string(e.what()).find("ShardWorkerStall"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(FailoverTest, ProcessGlobalFaultsStillRejected) {
  for (const chaos::Fault fault :
       {chaos::Fault{chaos::DispatchFailure{.at_us = 1'000}},
        chaos::Fault{chaos::RngExhaustion{.at_us = 1'000}}}) {
    chaos::CampaignConfig cfg = campaign(2);
    cfg.faults.push_back(fault);
    EXPECT_THROW(chaos::CampaignRunner(cfg).run(), std::invalid_argument);
  }
}

TEST_F(FailoverTest, ShardFaultsRejectedOutsideShardedCampaigns) {
  chaos::CampaignConfig cfg = campaign(0);
  cfg.shards = 0;
  cfg.faults.push_back(chaos::ShardCrash{.at_us = 1'000, .shard = 0});
  EXPECT_THROW(chaos::CampaignRunner(cfg).run(), std::invalid_argument);

  chaos::CampaignConfig oob = campaign(2);
  oob.faults.push_back(chaos::ShardCrash{.at_us = 1'000, .shard = 7});
  EXPECT_THROW(chaos::CampaignRunner(oob).run(), std::invalid_argument);
}

// ------------------------- routing: only the victim's keys ever move

TEST_F(FailoverTest, RendezvousMovesOnlyTheDeadShardsKeys) {
  const std::size_t shards = 4;
  std::vector<bool> all(shards, true);
  std::vector<bool> one_down(shards, true);
  one_down[2] = false;
  for (std::uint32_t key = 0; key < 512; ++key) {
    const std::size_t before = shard_for_live(key, shards, all);
    const std::size_t after = shard_for_live(key, shards, one_down);
    EXPECT_LT(after, shards);
    EXPECT_TRUE(one_down[after]);
    if (before != 2) {
      EXPECT_EQ(after, before) << "key " << key << " moved needlessly";
    }
  }
  // Nothing routable: falls back to the stable hash (callers treat the
  // dial as unanswered).
  std::vector<bool> none(shards, false);
  for (std::uint32_t key = 0; key < 32; ++key)
    EXPECT_EQ(shard_for_live(key, shards, none), shard_for(key, shards));
}

// ------------------- dead-shard books: breakdown + histogram merge

TEST_F(FailoverTest, DeadShardBreakdownStillConserves) {
  chaos::CampaignConfig cfg = campaign(4);
  cfg.faults.push_back(chaos::ShardCrash{
      .at_us = 120'000, .shard = 1, .repair_us = 300'000});
  // The campaign's own judge runs tier.conserved(), which now requires
  // every retired world's books to balance and the fleet totals to equal
  // retired + live sums. A crash mid-flood is exactly the case that used
  // to lose connections from the books.
  const chaos::CampaignReport r = chaos::CampaignRunner(cfg).run();
  EXPECT_TRUE(r.conserved);
  EXPECT_GT(r.connections_killed, 0u);
  // The killed connections are in the fleet's failed column (buried with
  // the retired world), not vanished.
  EXPECT_GE(r.server.failed_connections, r.connections_killed);
  EXPECT_EQ(r.server.connections_accepted,
            r.server.graceful_closes + r.server.idle_closes +
                r.server.failed_connections + r.server.refused_connections);
}

TEST_F(FailoverTest, RetiredHistogramsMergeExactly) {
  // Direct supervised world with real traffic: analysis::merge over the
  // per-shard breakdown histograms must count every handshake the fleet
  // ever completed — including those of the world that died mid-run and
  // was buried into its slot's retired books.
  constexpr std::uint64_t kSeed = 0xFA110E4;
  constexpr std::size_t kClients = 16;
  constexpr std::size_t kShards = 2;

  // A supervised fleet world driven directly (no campaign): uniform
  // arrivals, one ticket-key rotation, shard 0 crashed and rejoined.
  LoadConfig load;
  load.num_clients = kClients;
  load.mean_interarrival_us = 3'000;
  load.poisson_arrivals = false;
  load.seed = kSeed;
  load.shards = kShards;
  FleetWorld world(load, server_config(), client_config(), {},
                   /*server_rng=*/nullptr, /*supervised=*/true);
  ShardSupervisor& tier = *world.supervisor();
  tier.rotate_ticket_keys(10'000);
  tier.schedule_crash(60'000, 0, 200'000);

  (void)world.run(load.max_events);
  const auto& clients = world.clients();

  ASSERT_TRUE(tier.conserved());
  for (std::size_t i = 0; i < clients.size(); ++i)
    for (const SessionRecord& record : clients[i]->sessions())
      EXPECT_TRUE(record.completed) << "client " << i;

  const ServerStats fleet = tier.fleet_stats();
  analysis::LatencyHistogram merged;
  std::size_t recorded = 0;
  ServerStats summed;
  for (const ShardBreakdown& b : tier.breakdown()) {
    analysis::merge(merged, b.server.handshake_latency);
    recorded += b.server.handshake_latency.count();
    summed += b.server;
  }
  // Exact aggregation: merged bucket mass == every latency the fleet
  // (live + retired worlds) ever recorded == the fleet-stats view.
  EXPECT_GT(merged.count(), 0u);
  EXPECT_EQ(merged.count(), recorded);
  EXPECT_EQ(recorded, fleet.handshake_latency.count());
  EXPECT_EQ(summed.connections_accepted, fleet.connections_accepted);
  EXPECT_EQ(summed.failed_connections, fleet.failed_connections);

  // The rotation (barrier before the crash) reached both live worlds and
  // was replayed into the rejoined one — ring epochs stay in lockstep.
  EXPECT_EQ(fleet.ticket_key_rotations, 3u);  // 2 live + 1 replayed
  const ShardSupervisor::FailoverStats& fs = tier.failover_stats();
  EXPECT_EQ(fs.crashes, 1u);
  EXPECT_EQ(fs.rejoins, 1u);
  EXPECT_EQ(fs.control_replayed, 1u);
  EXPECT_GT(fs.heartbeats_seen, 0u);
  EXPECT_EQ(fs.missed_heartbeats, 0u);
}

// ----------------------------------------------- failover gap pricing

TEST_F(FailoverTest, FailoverGapPricesTheCrash) {
  const platform::WorkloadModel model =
      platform::WorkloadModel::paper_calibrated();
  const platform::Processor proc = platform::Processor::strongarm_sa1100();
  platform::ServedLoad load;
  load.full_handshakes_per_s = 40;
  load.resumed_handshakes_per_s = 120;
  load.bulk_mbps = 2.0;
  load.avg_session_kb = 4.0;
  load.sessions_per_s = 160;

  const platform::ServingGapReport r = platform::serving_gap(
      model, proc, load,
      {.shards = 4, .slice_us = 1'000, .reconnect_sessions = 150,
       .blackout_s = 0.25});
  // Three survivors carry the fleet, the barrier tax and the burst.
  EXPECT_DOUBLE_EQ(r.degraded_required_mips,
                   r.required_mips / 3.0 + r.merge_overhead_mips +
                       r.burst_mips / 3.0);
  // Losing a core makes the survivors' life strictly harder.
  EXPECT_GT(r.degraded_required_mips, r.per_shard_required_mips);
  EXPECT_GT(r.burst_mips, 0.0);
  EXPECT_GT(r.crash_energy_mj, 0.0);
  // The whole point of stateless tickets: the crash bill is orders of
  // magnitude below the full-handshake counterfactual.
  EXPECT_GT(r.crash_energy_full_mj, r.crash_energy_mj);
  EXPECT_GT(r.ticket_saving_ratio, 10.0);
}

}  // namespace
}  // namespace mapsec::server
