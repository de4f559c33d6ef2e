// Socket-bearer fleet tests: the same seeded client fleet is driven once
// through the sim LoadGenerator (loss-free channels) and once over real
// loopback TCP, and every session outcome — handshake mix, completion
// counts, echoes, fleet transcript digest — must be identical. Plus the
// chaos hooks (hard resets, paused accepts) against live shards, and
// connection retirement over a long run.
#include <gtest/gtest.h>

#include "mapsec/crypto/rng.hpp"
#include "mapsec/platform/processor.hpp"
#include "mapsec/server/load_gen.hpp"
#include "mapsec/server/socket_fleet.hpp"

namespace mapsec::server {
namespace {

using crypto::Bytes;
using protocol::CipherSuite;

constexpr std::uint64_t kNow = 1'050'000'000;  // ~2003

#define REQUIRE_SOCKETS()                                          \
  do {                                                             \
    if (!net::sockets_available())                                 \
      GTEST_SKIP() << "loopback TCP unavailable in this sandbox";  \
  } while (0)

class SocketFleetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    crypto::HmacDrbg rng(0x5E53);
    ca_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    server_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    ca_ = new protocol::CertificateAuthority("SocketRoot", *ca_key_, 0,
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

  static crypto::RsaKeyPair* ca_key_;
  static crypto::RsaKeyPair* server_key_;
  static protocol::CertificateAuthority* ca_;
  static protocol::Certificate* server_cert_;
};

crypto::RsaKeyPair* SocketFleetTest::ca_key_ = nullptr;
crypto::RsaKeyPair* SocketFleetTest::server_key_ = nullptr;
protocol::CertificateAuthority* SocketFleetTest::ca_ = nullptr;
protocol::Certificate* SocketFleetTest::server_cert_ = nullptr;

// The exit gate of the bearer backend: for the same seed, a socket-fleet
// run and a sim run must land on identical session outcomes — the bearer
// swap changes transport timing, never protocol behaviour.
TEST_F(SocketFleetTest, SocketOutcomesMatchSimRunForSameSeed) {
  REQUIRE_SOCKETS();
  constexpr std::size_t kClients = 24;
  constexpr std::uint64_t kSeed = 0x50CCE7;

  ClientConfig client = client_config();
  client.sessions = 2;  // second session resumes through the cache

  BoundedSessionCache::Config cache;
  cache.capacity = 64;  // no evictions: resumption mix stays loss-free
  cache.ttl_us = 0;

  // Reference run: sim bearer, loss-free channels, one event queue.
  LoadConfig sim_load;
  sim_load.num_clients = kClients;
  sim_load.seed = kSeed;
  LoadGenerator gen(sim_load, server_config(), client, cache);
  const LoadReport sim = gen.run();
  ASSERT_EQ(sim.sessions_completed, kClients * 2);

  // Wall-clock run: two shard threads over loopback TCP, clients routed
  // by shard_for(gid) so resumption lands on the shard that cached it.
  // The huge clock origin runs the whole fleet at the far end of the
  // monotonic timeline, proving the timeout arithmetic can't wrap.
  SocketFleetConfig fleet_cfg;
  fleet_cfg.shards = 2;
  fleet_cfg.seed = kSeed;
  fleet_cfg.reserve_slabs_per_shard = 128;
  fleet_cfg.clock_origin_us = net::SimTime{1} << 60;
  SocketServerFleet fleet(fleet_cfg, server_config(), cache);
  ASSERT_TRUE(fleet.ok());
  fleet.start();

  SocketLoadConfig socket_load;
  socket_load.num_clients = kClients;
  socket_load.seed = kSeed;
  socket_load.reserve_slabs = 128;
  socket_load.clock_origin_us = net::SimTime{1} << 60;
  SocketClientFleet clients(socket_load, client, server_config(),
                            fleet.ports());
  const SocketClientReport socket = clients.run();
  const SocketServerFleet::Report servers = fleet.stop();

  ASSERT_TRUE(socket.all_finished) << "fleet blew the wall budget";

  // ---- outcome equality ------------------------------------------------
  EXPECT_EQ(socket.sessions_attempted, sim.sessions_attempted);
  EXPECT_EQ(socket.sessions_completed, sim.sessions_completed);
  EXPECT_EQ(socket.sessions_failed, sim.sessions_failed);
  EXPECT_EQ(socket.echo_mismatches, 0u);
  EXPECT_EQ(socket.connection_attempts, sim.connection_attempts);
  EXPECT_EQ(socket.fleet_digest, sim.fleet_digest)
      << "transcripts diverged between bearers";

  EXPECT_EQ(servers.server.handshakes_completed,
            sim.server.handshakes_completed);
  EXPECT_EQ(servers.server.full_handshakes, sim.server.full_handshakes);
  EXPECT_EQ(servers.server.resumed_handshakes,
            sim.server.resumed_handshakes);
  EXPECT_EQ(servers.server.bytes_opened, sim.server.bytes_opened);
  EXPECT_EQ(servers.server.bytes_sealed, sim.server.bytes_sealed);

  // ---- bearer-side books -----------------------------------------------
  EXPECT_TRUE(servers.conserved);
  EXPECT_EQ(servers.accepted, socket.connection_attempts);
  EXPECT_TRUE(servers.zero_steady_state_alloc)
      << "server record path allocated past its pre-reserve";
  EXPECT_EQ(socket.arena.allocations, socket.arena.reserved)
      << "client record path allocated past its pre-reserve";
  EXPECT_EQ(socket.bearer_errors, 0u);
  EXPECT_GT(socket.sockets.frames_sent, 0u);
  // Both halves of the conversation agree on the wire volume.
  EXPECT_EQ(socket.sockets.bytes_sent, servers.sockets.bytes_received);
  EXPECT_EQ(socket.sockets.bytes_received, servers.sockets.bytes_sent);
}

// Hard-RST chaos: every live connection on the shard dies, the server
// books the failures, and the conservation identity still holds.
TEST_F(SocketFleetTest, InjectedResetsAreContainedAndConserved) {
  REQUIRE_SOCKETS();
  SocketFleetConfig fleet_cfg;
  fleet_cfg.shards = 1;
  SocketServerFleet fleet(fleet_cfg, server_config(), {});
  ASSERT_TRUE(fleet.ok());
  fleet.start();

  // Park three raw connections on the shard (no handshake traffic —
  // they are mid-"handshake" victims from the server's point of view).
  net::MonotonicClock clock;
  net::Reactor reactor(clock);
  net::BufferArena arena;
  net::SocketConfig socket_cfg;
  std::vector<std::unique_ptr<net::SocketEndpoint>> conns;
  std::size_t dead = 0;
  for (int i = 0; i < 3; ++i) {
    auto ep = net::connect_endpoint(reactor, arena, socket_cfg,
                                    fleet.ports()[0]);
    ep->rx().set_receiver([](crypto::ConstBytes) {});
    ep->set_on_error([&dead](const std::string&) { ++dead; });
    conns.push_back(std::move(ep));
  }
  ASSERT_TRUE(reactor.run_until(
      [&fleet] { return fleet.accepted_on(0) == 3; }, 5'000'000));

  EXPECT_EQ(fleet.reset_open_sockets(0), 3u);
  ASSERT_TRUE(
      reactor.run_until([&dead] { return dead == 3; }, 5'000'000));
  for (const auto& ep : conns) EXPECT_FALSE(ep->open());

  const SocketServerFleet::Report report = fleet.stop();
  EXPECT_EQ(report.server.connections_accepted, 3u);
  EXPECT_TRUE(report.conserved)
      << "reset storm broke the conservation books";
}

// Accept-queue overflow chaos: while accepts are paused the application
// layer admits nobody; resuming drains the kernel backlog.
TEST_F(SocketFleetTest, PausedAcceptsHoldTheDoorThenDrain) {
  REQUIRE_SOCKETS();
  SocketFleetConfig fleet_cfg;
  fleet_cfg.shards = 1;
  SocketServerFleet fleet(fleet_cfg, server_config(), {});
  ASSERT_TRUE(fleet.ok());
  fleet.start();
  fleet.pause_accepts(0, true);

  net::MonotonicClock clock;
  net::Reactor reactor(clock);
  net::BufferArena arena;
  net::SocketConfig socket_cfg;
  auto a = net::connect_endpoint(reactor, arena, socket_cfg,
                                 fleet.ports()[0]);
  auto b = net::connect_endpoint(reactor, arena, socket_cfg,
                                 fleet.ports()[0]);
  reactor.run_until([] { return false; }, 200'000);  // give it real time
  EXPECT_EQ(fleet.accepted_on(0), 0u);

  fleet.pause_accepts(0, false);
  ASSERT_TRUE(reactor.run_until(
      [&fleet] { return fleet.accepted_on(0) == 2; }, 5'000'000));
  fleet.stop();
}

// Retirement over real TCP: one shard serves 500 sessions, each client's
// back to back. Every finished connection leaves the connection table
// and its SA leaves the pipeline, so at stop both are empty and the books
// still balance. Tearing a link down under a live endpoint is the
// use-after-free risk, which is why this also runs in the ASan tree.
TEST_F(SocketFleetTest, ShardRetiresEveryFinishedConnection) {
  REQUIRE_SOCKETS();
  SocketFleetConfig fleet_cfg;
  fleet_cfg.shards = 1;
  fleet_cfg.reserve_slabs_per_shard = 128;
  SocketServerFleet fleet(fleet_cfg, server_config(), {});
  ASSERT_TRUE(fleet.ok());
  fleet.start();

  ClientConfig client = client_config();
  client.sessions = 100;
  client.payloads_per_session = 1;
  client.think_time_us = 0;
  SocketLoadConfig load;
  load.num_clients = 5;
  load.reserve_slabs = 128;
  SocketClientFleet clients(load, client, server_config(), fleet.ports());
  const SocketClientReport socket = clients.run();
  const SocketServerFleet::Report servers = fleet.stop();

  ASSERT_TRUE(socket.all_finished) << "fleet blew the wall budget";
  EXPECT_EQ(socket.sessions_completed, 500u);
  EXPECT_EQ(socket.echo_mismatches, 0u);
  EXPECT_EQ(servers.server.connections_accepted, socket.connection_attempts);
  EXPECT_TRUE(servers.conserved);
  ASSERT_EQ(servers.shards.size(), 1u);
  EXPECT_EQ(servers.shards[0].tracked_connections, 0u);
  EXPECT_EQ(servers.shards[0].live_sas, 0u);
}

}  // namespace
}  // namespace mapsec::server
