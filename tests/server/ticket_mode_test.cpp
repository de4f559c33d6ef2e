// Server-level stateless-ticket tests: ticket-mode resumption through the
// full event-driven stack (LoadGenerator fleets), key rotation under
// traffic, degraded-mode interplay, and the cache-vs-ticket determinism
// witness (identical fleet digests).
#include <gtest/gtest.h>

#include "mapsec/crypto/rng.hpp"
#include "mapsec/platform/processor.hpp"
#include "mapsec/server/load_gen.hpp"
#include "mapsec/server/session_cache.hpp"

namespace mapsec::server {
namespace {

using protocol::CipherSuite;

constexpr std::uint64_t kNow = 1'050'000'000;  // ~2003

class TicketModeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    crypto::HmacDrbg rng(0x5E53);
    ca_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    server_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    ca_ = new protocol::CertificateAuthority("TicketRoot", *ca_key_, 0,
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

  static ServerConfig server_config(bool tickets) {
    ServerConfig cfg;
    cfg.handshake.now = kNow;
    cfg.handshake.cert_chain = {*server_cert_};
    cfg.handshake.private_key = &server_key_->priv;
    cfg.ticket.enabled = tickets;
    return cfg;
  }

  static ClientConfig client_config(bool tickets) {
    ClientConfig cfg;
    cfg.handshake.now = kNow;
    cfg.handshake.trusted_roots = {ca_->root()};
    cfg.handshake.offered_suites = {CipherSuite::kRsaAes128CbcSha};
    cfg.use_session_tickets = tickets;
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

crypto::RsaKeyPair* TicketModeTest::ca_key_ = nullptr;
crypto::RsaKeyPair* TicketModeTest::server_key_ = nullptr;
protocol::CertificateAuthority* TicketModeTest::ca_ = nullptr;
protocol::Certificate* TicketModeTest::server_cert_ = nullptr;

TEST_F(TicketModeTest, SecondSessionResumesStatelesslyWithZeroCacheBytes) {
  ClientConfig client = client_config(/*tickets=*/true);
  client.sessions = 2;
  // capacity 0: the server has NO session cache storage at all — every
  // resumption must come from the ticket path.
  LoadGenerator gen(load_config(4), server_config(/*tickets=*/true),
                    client, {.capacity = 0, .ttl_us = 0});
  const LoadReport report = gen.run();

  EXPECT_EQ(report.sessions_completed, 8u);
  EXPECT_EQ(report.server.full_handshakes, 4u);
  EXPECT_EQ(report.server.resumed_handshakes, 4u);
  EXPECT_EQ(report.server.ticket_resumptions, 4u);
  // Every handshake re-issues (first + resumed): 8 seals.
  EXPECT_EQ(report.server.tickets_issued, 8u);
  EXPECT_EQ(report.server.ticket_open_failures, 0u);
  EXPECT_EQ(report.cache.insertions, 0u);
  EXPECT_EQ(report.cache_state_bytes, 0u);
  // Server resumption state is the key ring: O(depth), a few hundred
  // bytes regardless of fleet size.
  EXPECT_GT(report.ticket_state_bytes, 0u);
  EXPECT_LT(report.ticket_state_bytes, 1'024u);
  // The run is priced as the ticket tier it ran as.
  EXPECT_GT(report.gap.ticket_open_mips, 0.0);
}

TEST_F(TicketModeTest, FleetDigestIdenticalCacheVsTicket) {
  auto run = [&](bool tickets) {
    ClientConfig client = client_config(tickets);
    client.sessions = 2;
    client.payloads_per_session = 3;
    LoadConfig load = load_config(16);
    load.seed = 0x71C7;
    LoadGenerator gen(load, server_config(tickets), client,
                      {.capacity = tickets ? 0u : 64u, .ttl_us = 0});
    return gen.run();
  };

  const LoadReport cached = run(false);
  const LoadReport ticketed = run(true);
  // Same fleet, same payload streams: the transcript digest is a pure
  // function of the echoed bytes, so HOW resumption happened (cache
  // lookup vs ticket decrypt) must not show up in it.
  EXPECT_EQ(cached.fleet_digest, ticketed.fleet_digest);
  EXPECT_EQ(cached.sessions_completed, ticketed.sessions_completed);
  EXPECT_EQ(cached.server.bytes_sealed, ticketed.server.bytes_sealed);
  EXPECT_EQ(cached.server.resumed_handshakes,
            ticketed.server.resumed_handshakes);
  EXPECT_EQ(cached.server.ticket_resumptions, 0u);
  EXPECT_EQ(ticketed.server.ticket_resumptions,
            ticketed.server.resumed_handshakes);
  // The state bill is where the two modes differ.
  EXPECT_GT(cached.cache_state_bytes, ticketed.ticket_state_bytes);
}

TEST_F(TicketModeTest, IntervalRotationUnderTrafficStrandsNobody) {
  ClientConfig client = client_config(/*tickets=*/true);
  client.sessions = 3;
  ServerConfig server = server_config(/*tickets=*/true);
  // Rotate roughly every 50 simulated ms — many rotations over the run,
  // but the 3-deep window keeps just-issued tickets decryptable.
  server.ticket.rotation_interval_us = 50'000;
  server.ticket.decrypt_window = 3;

  LoadConfig load = load_config(24);
  load.mean_interarrival_us = 20'000;
  LoadGenerator gen(load, server, client, {.capacity = 0, .ttl_us = 0});
  const LoadReport report = gen.run();

  EXPECT_EQ(report.sessions_completed, 72u);
  EXPECT_GT(report.server.ticket_key_rotations, 0u);
  // Rotation must never strand an honest client: a stale ticket falls
  // back to a full handshake (which re-issues), never a failure.
  EXPECT_EQ(report.sessions_failed, 0u);
  EXPECT_GT(report.server.ticket_resumptions, 0u);
  // State stays O(window) no matter how many rotations happened.
  EXPECT_LT(report.ticket_state_bytes, 1'024u);
}

TEST_F(TicketModeTest, TicketlessClientsUnaffectedByTicketMode) {
  // Clients that never ask for tickets against a ticket-enabled server:
  // plain session-id resumption through the cache, as before.
  ClientConfig client = client_config(/*tickets=*/false);
  client.sessions = 2;
  LoadGenerator gen(load_config(3), server_config(/*tickets=*/true),
                    client, {.capacity = 64, .ttl_us = 0});
  const LoadReport report = gen.run();

  EXPECT_EQ(report.sessions_completed, 6u);
  EXPECT_EQ(report.server.resumed_handshakes, 3u);
  EXPECT_EQ(report.server.ticket_resumptions, 0u);
  EXPECT_EQ(report.server.tickets_issued, 0u);
  EXPECT_EQ(report.cache.hits, 3u);
}

TEST_F(TicketModeTest, DegradedModeShedsFullButServesTicketHolders) {
  // Tight degraded watermarks + a burst of arrivals: ticket-bearing
  // second sessions keep resuming while fresh full handshakes are shed.
  ClientConfig client = client_config(/*tickets=*/true);
  client.sessions = 2;
  client.retry_budget = 6;
  ServerConfig server = server_config(/*tickets=*/true);
  server.degraded_high_watermark = 2;
  server.degraded_low_watermark = 1;

  LoadConfig load = load_config(12);
  load.mean_interarrival_us = 200;  // burst
  LoadGenerator gen(load, server, client, {.capacity = 0, .ttl_us = 0});
  const LoadReport report = gen.run();

  // The run saw degraded stretches, and ticket resumption kept working.
  EXPECT_GT(report.server.degraded_transitions, 0u);
  EXPECT_GT(report.server.ticket_resumptions, 0u);
  // Whatever was shed failed cleanly and within budget.
  EXPECT_EQ(report.sessions_completed + report.sessions_failed,
            report.sessions_attempted);
}

}  // namespace
}  // namespace mapsec::server
