// Public-key offload engine tests: modeled-lane scheduling, thread-pool
// lifecycle (drain and shutdown under TSan), stalled-worker stealing,
// and the determinism contract — the fleet transcript digest must be
// byte-identical for ANY offload worker count, including inline mode.
#include <gtest/gtest.h>

#include <vector>

#include "mapsec/crypto/rng.hpp"
#include "mapsec/crypto/rsa.hpp"
#include "mapsec/engine/offload_engine.hpp"
#include "mapsec/platform/processor.hpp"
#include "mapsec/server/load_gen.hpp"

namespace mapsec::server {
namespace {

using crypto::Bytes;
using protocol::CipherSuite;

constexpr std::uint64_t kNow = 1'050'000'000;  // ~2003

/// Shared PKI: one CA, one server identity (RSA-512 for speed).
class ServerOffloadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    crypto::HmacDrbg rng(0x0FF1);
    ca_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    server_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    ca_ = new protocol::CertificateAuthority("OffloadRoot", *ca_key_, 0,
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

  static protocol::PkJob sign_job(std::uint8_t tag) {
    protocol::PkJob job;
    job.kind = protocol::PkJob::Kind::kRsaSign;
    job.private_key = &server_key_->priv;
    job.input = Bytes(32, tag);
    return job;
  }

  /// One of each branch a lane window can take: a valid decrypt, a
  /// decrypt whose plaintext is not type-2 padded, a ciphertext one byte
  /// short, a sign, and a valid and a forged verify.
  static std::vector<protocol::PkJob> mixed_jobs() {
    using Kind = protocol::PkJob::Kind;
    const crypto::RsaPrivateKey& priv = server_key_->priv;
    const crypto::RsaPublicKey& pub = server_key_->pub;
    const std::size_t k = pub.modulus_bytes();
    crypto::HmacDrbg rng(0x313D);
    std::vector<protocol::PkJob> jobs(6);

    jobs[0].kind = Kind::kRsaDecrypt;
    jobs[0].private_key = &priv;
    jobs[0].input = crypto::rsa_encrypt_pkcs1(pub, Bytes(48, 0x5A), rng);

    Bytes type1(k, 0xFF);  // 00 01 FF..FF: decrypts cleanly, pads badly
    type1[0] = 0x00;
    type1[1] = 0x01;
    jobs[1].kind = Kind::kRsaDecrypt;
    jobs[1].private_key = &priv;
    jobs[1].input =
        crypto::rsa_public_op(pub, crypto::BigInt::from_bytes_be(type1))
            .to_bytes_be(k);

    jobs[2].kind = Kind::kRsaDecrypt;
    jobs[2].private_key = &priv;
    jobs[2].input = Bytes(k - 1, 0x42);

    jobs[3] = sign_job(0x33);

    const Bytes content(40, 0x77);
    jobs[4].kind = Kind::kRsaVerify;
    jobs[4].public_key = pub;
    jobs[4].input = content;
    jobs[4].signature = crypto::rsa_sign_sha1(priv, content);
    jobs[5] = jobs[4];
    jobs[5].signature[k / 2] ^= 0x01;
    return jobs;
  }

  /// Submit a lone sign (the idle lane dispatches it by itself) and then
  /// the mixed jobs, which queue behind it into one window. Every
  /// callback's result must equal run_pk_job on the same job.
  static void run_mixed_window(engine::OffloadEngine& engine,
                               net::EventQueue& queue) {
    std::vector<protocol::PkJob> jobs = mixed_jobs();
    jobs.insert(jobs.begin(), sign_job(0x11));
    std::size_t completions = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const protocol::PkResult want = protocol::run_pk_job(jobs[i]);
      engine.submit(jobs[i], [&completions, want, i](
                                 const protocol::PkResult& got) {
        ++completions;
        EXPECT_EQ(got.kind, want.kind) << "job " << i;
        EXPECT_EQ(got.decrypted, want.decrypted) << "job " << i;
        EXPECT_EQ(got.signature, want.signature) << "job " << i;
        EXPECT_EQ(got.valid, want.valid) << "job " << i;
      });
    }
    queue.run_all();
    EXPECT_EQ(completions, jobs.size());
    EXPECT_EQ(engine.stats().completed, jobs.size());
    EXPECT_EQ(engine.stats().batches, 2u);
    EXPECT_EQ(engine.stats().max_batch_fill, jobs.size() - 1);
  }

  static crypto::RsaKeyPair* ca_key_;
  static crypto::RsaKeyPair* server_key_;
  static protocol::CertificateAuthority* ca_;
  static protocol::Certificate* server_cert_;
};

crypto::RsaKeyPair* ServerOffloadTest::ca_key_ = nullptr;
crypto::RsaKeyPair* ServerOffloadTest::server_key_ = nullptr;
protocol::CertificateAuthority* ServerOffloadTest::ca_ = nullptr;
protocol::Certificate* ServerOffloadTest::server_cert_ = nullptr;

// ------------------------------------------------- OffloadEngine directly

TEST_F(ServerOffloadTest, PoolDrainsAllSubmittedJobs) {
  net::EventQueue queue;
  engine::OffloadEngine engine(queue, 4);
  const protocol::PkResult expected = protocol::run_pk_job(sign_job(7));

  int completions = 0;
  for (int i = 0; i < 16; ++i) {
    engine.submit(sign_job(7), [&](const protocol::PkResult& r) {
      ++completions;
      EXPECT_EQ(r.signature, expected.signature);
    });
  }
  EXPECT_EQ(engine.in_flight(), 16u);
  queue.run_all();
  EXPECT_EQ(completions, 16);
  EXPECT_EQ(engine.in_flight(), 0u);
  EXPECT_EQ(engine.stats().submitted, 16u);
  EXPECT_EQ(engine.stats().completed, 16u);
}

// Destroying the engine with jobs still queued must stop the workers
// cleanly (no deadlock, no use-after-free of the work queue) — the
// completion events are simply never run because the EventQueue is
// dropped without draining. TSan covers the join ordering.
TEST_F(ServerOffloadTest, ShutdownWithQueuedJobsDoesNotDeadlock) {
  net::EventQueue queue;
  {
    engine::OffloadEngine engine(queue, 2);
    for (int i = 0; i < 32; ++i)
      engine.submit(sign_job(9), [](const protocol::PkResult&) {});
    // Engine destructor runs here with most jobs still queued.
  }
  SUCCEED();
}

TEST_F(ServerOffloadTest, ZeroWorkersRejected) {
  net::EventQueue queue;
  EXPECT_THROW(engine::OffloadEngine(queue, 0), std::invalid_argument);
}

// The modeled lane schedule is a pure function of the submission
// sequence: with one lane every job queues behind the previous one; with
// enough lanes none waits.
TEST_F(ServerOffloadTest, LaneModelAccountsQueueing) {
  engine::OffloadCosts costs;
  costs.rsa_sign_us = 1'000;
  {
    net::EventQueue queue;
    engine::OffloadEngine one(queue, 1, costs);
    for (int i = 0; i < 4; ++i)
      one.submit(sign_job(3), [](const protocol::PkResult&) {});
    queue.run_all();
    // Jobs 2..4 waited 1, 2 and 3 ms for the single lane.
    EXPECT_EQ(one.stats().queue_wait_us, 6'000u);
    EXPECT_EQ(one.stats().lane_busy_us, 4'000u);
    EXPECT_EQ(queue.now(), 4'000u);
  }
  {
    net::EventQueue queue;
    engine::OffloadEngine four(queue, 4, costs);
    for (int i = 0; i < 4; ++i)
      four.submit(sign_job(3), [](const protocol::PkResult&) {});
    queue.run_all();
    EXPECT_EQ(four.stats().queue_wait_us, 0u);
    EXPECT_EQ(queue.now(), 1'000u);
  }
}

// A stalled worker must degrade gracefully: the completion event waits
// out the grace period, then recomputes the job inline (bit-identical —
// PkResults are pure functions of the job) and counts a steal.
TEST_F(ServerOffloadTest, StalledWorkersAreStolenNotDeadlocked) {
  net::EventQueue queue;
  engine::OffloadEngine engine(queue, 2, {}, /*steal_timeout_ms=*/25);
  engine.inject_worker_stall(0, 400'000'000);  // 400 ms per job
  engine.inject_worker_stall(1, 400'000'000);
  const protocol::PkResult expected = protocol::run_pk_job(sign_job(5));

  int completions = 0;
  for (int i = 0; i < 3; ++i) {
    engine.submit(sign_job(5), [&](const protocol::PkResult& r) {
      ++completions;
      EXPECT_EQ(r.signature, expected.signature);
    });
  }
  queue.run_all();
  EXPECT_EQ(completions, 3);
  EXPECT_EQ(engine.stats().completed, 3u);
  EXPECT_GE(engine.stats().stolen, 1u);
}

// ----------------------------------------------------- batched windows

// The batched lane model, priced by hand: one idle lane dispatches the
// first job alone (batching only materialises under queueing), then the
// four jobs that queued behind it drain as one window costing
// cost + 3 * 0.3 * cost.
TEST_F(ServerOffloadTest, BatchWindowDrainsQueuedJobs) {
  engine::OffloadCosts costs;
  costs.rsa_sign_us = 1'000;
  costs.batch_marginal = 0.3;
  net::EventQueue queue;
  engine::OffloadEngine engine(queue, 1, costs, 250, /*batch_width=*/4);
  EXPECT_EQ(engine.batch_width(), 4u);
  const protocol::PkResult expected = protocol::run_pk_job(sign_job(6));

  std::vector<net::SimTime> done_at;
  for (int i = 0; i < 5; ++i) {
    engine.submit(sign_job(6), [&, i](const protocol::PkResult& r) {
      EXPECT_EQ(r.signature, expected.signature) << "job " << i;
      done_at.push_back(queue.now());
    });
  }
  queue.run_all();
  // Job 0 alone at t=1000; jobs 1..4 share the window closing at
  // 1000 + (1000 + 3 * 300) = 2900.
  ASSERT_EQ(done_at.size(), 5u);
  EXPECT_EQ(done_at[0], 1'000u);
  for (int i = 1; i < 5; ++i) EXPECT_EQ(done_at[i], 2'900u) << "job " << i;
  EXPECT_EQ(engine.stats().batches, 2u);
  EXPECT_EQ(engine.stats().batched_jobs, 4u);
  EXPECT_EQ(engine.stats().max_batch_fill, 4u);
  EXPECT_EQ(engine.stats().lane_busy_us, 2'900u);
  EXPECT_EQ(engine.stats().queue_wait_us, 4'000u);  // 4 jobs x 1 ms
  EXPECT_EQ(engine.stats().completed, 5u);
}

// Width 1 must reproduce the unbatched engine's schedule exactly — same
// completion instants, no windows with fill >= 2.
TEST_F(ServerOffloadTest, WidthOneReproducesUnbatchedSchedule) {
  engine::OffloadCosts costs;
  costs.rsa_sign_us = 1'000;
  net::EventQueue queue;
  engine::OffloadEngine engine(queue, 1, costs, 250, /*batch_width=*/1);
  for (int i = 0; i < 4; ++i)
    engine.submit(sign_job(3), [](const protocol::PkResult&) {});
  queue.run_all();
  EXPECT_EQ(queue.now(), 4'000u);
  EXPECT_EQ(engine.stats().queue_wait_us, 6'000u);
  EXPECT_EQ(engine.stats().batches, 4u);
  EXPECT_EQ(engine.stats().batched_jobs, 0u);
  EXPECT_EQ(engine.stats().max_batch_fill, 1u);
}

// A stall that hits a multi-job window exercises the whole-window steal:
// the event-loop thread recomputes every job of the window inline, and
// all results stay bit-identical.
TEST_F(ServerOffloadTest, StalledBatchIsStolenWholeWindow) {
  net::EventQueue queue;
  engine::OffloadEngine engine(queue, 1, {}, /*steal_timeout_ms=*/25,
                               /*batch_width=*/4);
  engine.inject_worker_stall(0, 400'000'000);  // 400 ms per window
  const protocol::PkResult expected = protocol::run_pk_job(sign_job(5));

  int completions = 0;
  for (int i = 0; i < 5; ++i) {
    engine.submit(sign_job(5), [&](const protocol::PkResult& r) {
      ++completions;
      EXPECT_EQ(r.signature, expected.signature);
    });
  }
  queue.run_all();
  EXPECT_EQ(completions, 5);
  EXPECT_EQ(engine.stats().completed, 5u);
  EXPECT_EQ(engine.stats().batched_jobs, 4u);  // jobs 1..4 shared a window
  EXPECT_GE(engine.stats().stolen, 4u);  // at least the window was stolen
}

// A window mixing every job kind and every decrypt failure returns each
// job's own result, on a healthy lane and when the whole window is stolen.
TEST_F(ServerOffloadTest, MixedKindWindowMatchesRunPkJob) {
  {
    // The reference outcomes themselves: one valid plaintext, two
    // rejected ciphertexts, one accepted and one rejected signature.
    const std::vector<protocol::PkJob> jobs = mixed_jobs();
    EXPECT_EQ(protocol::run_pk_job(jobs[0]).decrypted, Bytes(48, 0x5A));
    EXPECT_FALSE(protocol::run_pk_job(jobs[1]).decrypted.has_value());
    EXPECT_FALSE(protocol::run_pk_job(jobs[2]).decrypted.has_value());
    EXPECT_TRUE(protocol::run_pk_job(jobs[4]).valid);
    EXPECT_FALSE(protocol::run_pk_job(jobs[5]).valid);
  }
  {
    net::EventQueue queue;
    engine::OffloadEngine engine(queue, 1, {}, 250, /*batch_width=*/8);
    run_mixed_window(engine, queue);
    EXPECT_EQ(engine.stats().stolen, 0u);
  }
  {
    net::EventQueue queue;
    engine::OffloadEngine engine(queue, 1, {}, /*steal_timeout_ms=*/25,
                                 /*batch_width=*/8);
    engine.inject_worker_stall(0, 400'000'000);  // 400 ms per window
    run_mixed_window(engine, queue);
    EXPECT_GE(engine.stats().stolen, 6u);  // at least the mixed window
  }
}

// --------------------------------------------- fleet-level determinism

// The offload determinism contract: for any worker count — and for
// inline mode — the honest-fleet transcript digest is byte-identical;
// only simulated timing (and therefore rates) may change.
TEST_F(ServerOffloadTest, FleetDigestIdenticalAcrossWorkerCounts) {
  Bytes digest;
  for (std::size_t workers : {0u, 1u, 4u}) {
    ServerConfig server = server_config();
    server.offload_workers = workers;
    LoadGenerator gen(load_config(30), server, client_config(), {});
    const LoadReport r = gen.run();
    EXPECT_EQ(r.sessions_completed, 30u) << workers << " workers";
    EXPECT_EQ(r.echo_mismatches, 0u);
    if (digest.empty()) {
      digest = r.fleet_digest;
    } else {
      EXPECT_EQ(r.fleet_digest, digest) << workers << " workers";
    }
    if (workers > 0) {
      // One RSA ClientKeyExchange decrypt per full handshake, all
      // completed, none dropped or stolen on the healthy path.
      EXPECT_EQ(r.server.offload_submitted, 30u);
      EXPECT_EQ(r.server.offload_completed, 30u);
      EXPECT_EQ(r.server.offload_stolen, 0u);
      EXPECT_GT(r.server.offload_lane_busy_us, 0u);
    } else {
      EXPECT_EQ(r.server.offload_submitted, 0u);
    }
  }
}

// The batched determinism contract: batching moves completion instants
// (lane windows finish earlier in aggregate) but never the bytes — the
// honest-fleet transcript digest is identical for every batch width.
// One lane with ~1 ms arrivals against a 4 ms service time guarantees
// queueing, so widths >= 2 genuinely form multi-job windows.
TEST_F(ServerOffloadTest, FleetDigestIdenticalAcrossBatchWidths) {
  Bytes digest;
  for (std::size_t width : {1u, 2u, 4u, 8u}) {
    ServerConfig server = server_config();
    server.offload_workers = 1;
    server.offload_batch_width = width;
    LoadGenerator gen(load_config(30), server, client_config(), {});
    const LoadReport r = gen.run();
    EXPECT_EQ(r.sessions_completed, 30u) << "width " << width;
    EXPECT_EQ(r.echo_mismatches, 0u) << "width " << width;
    EXPECT_EQ(r.server.offload_completed, 30u) << "width " << width;
    EXPECT_EQ(r.server.offload_stolen, 0u) << "width " << width;
    if (width == 1) {
      EXPECT_EQ(r.server.offload_batched_jobs, 0u);
    } else {
      EXPECT_GT(r.server.offload_batched_jobs, 0u) << "width " << width;
      EXPECT_LE(r.server.offload_max_batch_fill, width) << "width " << width;
      EXPECT_GE(r.server.offload_max_batch_fill, 2u) << "width " << width;
    }
    if (digest.empty()) {
      digest = r.fleet_digest;
    } else {
      EXPECT_EQ(r.fleet_digest, digest) << "width " << width;
    }
  }
}

// Resumption composes with offload: abbreviated handshakes never touch
// the accelerator, so lane demand tracks FULL handshakes only.
TEST_F(ServerOffloadTest, ResumedHandshakesSkipTheAccelerator) {
  ServerConfig server = server_config();
  server.offload_workers = 2;
  ClientConfig client = client_config();
  client.sessions = 3;  // one full + two resumed per client
  LoadGenerator gen(load_config(10), server, client,
                    {.capacity = 64, .ttl_us = 0});
  const LoadReport r = gen.run();
  EXPECT_EQ(r.sessions_completed, 30u);
  EXPECT_EQ(r.server.full_handshakes, 10u);
  EXPECT_EQ(r.server.resumed_handshakes, 20u);
  EXPECT_EQ(r.server.offload_submitted, r.server.full_handshakes);
  EXPECT_EQ(r.server.offload_completed, r.server.offload_submitted);
}

// Offload composes with the admission valve: suspended handshakes count
// toward the handshake queue, so a flood of concurrent full handshakes
// still trips the bound instead of growing unbounded deferred state.
TEST_F(ServerOffloadTest, SuspendedHandshakesCountTowardAdmission) {
  ServerConfig server = server_config();
  server.offload_workers = 1;
  server.max_handshake_queue = 4;
  LoadConfig load = load_config(24);
  load.mean_interarrival_us = 10;  // near-simultaneous arrivals
  ClientConfig client = client_config();
  client.retry_budget = 6;
  LoadGenerator gen(load, server, client, {});
  const LoadReport r = gen.run();
  EXPECT_GT(r.server.refused_connections, 0u);
  EXPECT_EQ(r.sessions_completed, 24u);  // retries land once lanes drain
}

}  // namespace
}  // namespace mapsec::server
