// Real-socket bearer tests: loopback echo, send coalescing, partial-
// write backpressure, hard-reset containment, writes to a reset peer,
// reads split across turns and EOF after a short read, arena recycling,
// paused accepts. Every socket test runtime-probes
// loopback TCP and skips visibly when the sandbox has no network stack.
// The reactor's timer precision needs no socket.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "mapsec/net/frame_codec.hpp"
#include "mapsec/net/link.hpp"
#include "mapsec/net/socket_bearer.hpp"

namespace mapsec::net {
namespace {

using mapsec::crypto::Bytes;
using mapsec::crypto::ConstBytes;

#define REQUIRE_SOCKETS()                                          \
  do {                                                             \
    if (!sockets_available())                                      \
      GTEST_SKIP() << "loopback TCP unavailable in this sandbox";  \
  } while (0)

/// One reactor, one arena, one listener; accepted endpoints echo every
/// frame straight back. The standard rig for the tests below.
struct EchoRig {
  MonotonicClock clock;
  Reactor reactor{clock};
  BufferArena arena;
  SocketConfig config;
  std::unique_ptr<SocketListener> listener;
  std::vector<std::unique_ptr<SocketEndpoint>> accepted;
  bool echo = true;

  explicit EchoRig(SocketConfig cfg = {}) : config(cfg) {
    listener = std::make_unique<SocketListener>(reactor, arena, config, 0);
    listener->set_on_accept([this](std::unique_ptr<SocketEndpoint> ep) {
      SocketEndpoint* raw = ep.get();
      if (echo) {
        raw->rx().set_receiver(
            [raw](ConstBytes frame) { raw->tx().send(frame); });
      }
      accepted.push_back(std::move(ep));
    });
  }
};

Bytes patterned(std::size_t n, std::uint8_t seed) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<std::uint8_t>(seed + i * 13);
  return out;
}

TEST(SocketBearer, LoopbackEchoAcrossSlabBoundaries) {
  REQUIRE_SOCKETS();
  EchoRig rig;
  ASSERT_TRUE(rig.listener->ok());
  auto client = connect_endpoint(rig.reactor, rig.arena, rig.config,
                                 rig.listener->port());
  ASSERT_NE(client, nullptr);

  // Sizes chosen to cross every framing regime: empty, sub-slab,
  // exactly-one-slab, and a multi-slab frame that must reassemble
  // through the scratch path.
  std::vector<Bytes> sent = {patterned(0, 1), patterned(100, 2),
                             patterned(16 * 1024, 3),
                             patterned(100 * 1024, 4)};
  std::vector<Bytes> got;
  client->rx().set_receiver([&got](ConstBytes frame) {
    got.emplace_back(frame.begin(), frame.end());
  });
  for (const Bytes& msg : sent) client->tx().send(msg);

  ASSERT_TRUE(rig.reactor.run_until(
      [&got, &sent] { return got.size() == sent.size(); }, 5'000'000));
  for (std::size_t i = 0; i < sent.size(); ++i)
    EXPECT_EQ(got[i], sent[i]) << "frame " << i;

  // All four frames were queued in one turn: the deferred flush must
  // have coalesced them into fewer writev calls than frames.
  EXPECT_EQ(client->stats().frames_sent, sent.size());
  EXPECT_LT(client->stats().writev_calls + client->stats().partial_writes,
            sent.size() + client->stats().eagain_writes + 2);
}

TEST(SocketBearer, VectoredFlushCoalescesQueuedRecords) {
  REQUIRE_SOCKETS();
  EchoRig rig;
  auto client = connect_endpoint(rig.reactor, rig.arena, rig.config,
                                 rig.listener->port());
  std::size_t got = 0;
  client->rx().set_receiver([&got](ConstBytes) { ++got; });
  // Wait for the connect to complete first so the measurement isn't
  // polluted by the queued-while-connecting flush.
  ASSERT_TRUE(rig.reactor.run_until(
      [&rig] { return !rig.accepted.empty(); }, 5'000'000));

  const std::uint64_t writev_before = client->stats().writev_calls;
  for (int i = 0; i < 10; ++i) client->tx().send(patterned(64, i));
  ASSERT_TRUE(
      rig.reactor.run_until([&got] { return got == 10; }, 5'000'000));
  // Ten records, one reactor-turn flush: a single gather submission
  // (10 * 68 bytes fits any socket buffer).
  EXPECT_EQ(client->stats().writev_calls - writev_before, 1u);
}

TEST(SocketBearer, PartialWriteBackpressureDeliversEverythingIntact) {
  REQUIRE_SOCKETS();
  SocketConfig cfg;
  // Shrink the kernel buffers so a 2 MiB burst must ride EPOLLOUT
  // re-arms: every 128 KiB gather lands a ~16 KiB partial write. (Some
  // sandboxed TCP stacks wedge outright at certain other small sizes —
  // a raw epoll writer stalls with 4 KiB or 32 KiB buffers here — so
  // this size is chosen as one such stacks also handle correctly.)
  cfg.sndbuf_bytes = 16 * 1024;
  cfg.rcvbuf_bytes = 16 * 1024;
  cfg.max_tx_slabs = 1024;
  EchoRig rig(cfg);
  rig.echo = false;  // server side consumes instead of echoing
  auto client = connect_endpoint(rig.reactor, rig.arena, rig.config = cfg,
                                 rig.listener->port());

  std::size_t received_bytes = 0;
  Bytes big = patterned(512 * 1024, 7);
  // Receiver attaches only after the burst is queued, so the peer's
  // inbound backlog plus the tiny buffers force EAGAIN/partial writes.
  for (int i = 0; i < 4; ++i) client->tx().send(big);

  ASSERT_TRUE(rig.reactor.run_until(
      [&rig] { return !rig.accepted.empty(); }, 5'000'000));
  SocketEndpoint* server_ep = rig.accepted.front().get();
  std::size_t frames = 0;
  Bytes last;
  server_ep->rx().set_receiver(
      [&received_bytes, &frames, &last](ConstBytes frame) {
        received_bytes += frame.size();
        ++frames;
        last.assign(frame.begin(), frame.end());
      });
  ASSERT_TRUE(rig.reactor.run_until(
      [&frames] { return frames == 4; }, 10'000'000));
  EXPECT_EQ(received_bytes, 4 * big.size());
  EXPECT_EQ(last, big);  // byte-exact through every partial-write seam
  EXPECT_GT(client->stats().partial_writes + client->stats().eagain_writes,
            0u)
      << "tiny SO_SNDBUF should have forced at least one short write";
}

TEST(SocketBearer, PeerResetContainsToOneConnection) {
  REQUIRE_SOCKETS();
  EchoRig rig;
  auto victim = connect_endpoint(rig.reactor, rig.arena, rig.config,
                                 rig.listener->port());
  auto bystander = connect_endpoint(rig.reactor, rig.arena, rig.config,
                                    rig.listener->port());
  std::string victim_error;
  victim->rx().set_receiver([](ConstBytes) {});
  victim->rx().set_on_channel_error(
      [&victim_error](const std::string& reason) { victim_error = reason; });
  Bytes echoed;
  bystander->rx().set_receiver([&echoed](ConstBytes frame) {
    echoed.assign(frame.begin(), frame.end());
  });
  ASSERT_TRUE(rig.reactor.run_until(
      [&rig] { return rig.accepted.size() == 2; }, 5'000'000));

  // Hard-RST the victim from the server side mid-life.
  rig.accepted.front()->reset();
  EXPECT_FALSE(rig.accepted.front()->open());

  // The bystander's session must be untouched by its neighbour's death.
  Bytes probe = patterned(2000, 9);
  bystander->tx().send(probe);
  ASSERT_TRUE(rig.reactor.run_until(
      [&echoed, &probe] { return echoed == probe; }, 5'000'000));
  ASSERT_TRUE(rig.reactor.run_until(
      [&victim] { return !victim->open(); }, 5'000'000));
  EXPECT_FALSE(victim_error.empty());

  // Pool hygiene: the victim's slabs went back to the arena, not into
  // limbo — every acquire is either recycled or held by a live queue.
  const BufferArena::Stats& s = rig.arena.stats();
  EXPECT_EQ(s.acquires, s.recycles + s.in_use);
}

TEST(SocketBearer, BearerResetFailsReliableLinkImmediately) {
  REQUIRE_SOCKETS();
  EchoRig rig;
  rig.echo = false;
  auto client = connect_endpoint(rig.reactor, rig.arena, rig.config,
                                 rig.listener->port());
  // RTO budget worth ~seconds of wall clock: if the link waits out the
  // retries the run_until below times out; the bearer error must kill
  // it straight away instead.
  LinkConfig link_cfg;
  link_cfg.initial_rto_us = 400'000;
  link_cfg.max_retries = 20;
  ReliableLink link(rig.reactor.queue(), client->tx(), client->rx(),
                    link_cfg);
  std::string link_error;
  link.set_on_error(
      [&link_error](const std::string& reason) { link_error = reason; });
  link.send_message(patterned(100, 3));
  ASSERT_TRUE(rig.reactor.run_until(
      [&rig] { return !rig.accepted.empty(); }, 5'000'000));
  rig.accepted.front()->reset();
  ASSERT_TRUE(rig.reactor.run_until([&link] { return link.dead(); },
                                    2'000'000));
  EXPECT_NE(link_error.find("bearer:"), std::string::npos) << link_error;
}

// A write to a peer that has gone away must fail the link, not raise
// SIGPIPE (whose default action kills the whole server process). The
// peer half-closes, then closes with SO_LINGER{0}: the server socket
// takes the RST in CLOSE_WAIT, so its next send hits EPIPE on the very
// first attempt, while the server still has a message queued for it.
TEST(SocketBearer, WriteToResetPeerFailsTheLinkNotTheProcess) {
  REQUIRE_SOCKETS();
  EchoRig rig;
  rig.echo = false;
  const int peer = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(peer, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(rig.listener->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(peer, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_TRUE(rig.reactor.run_until(
      [&rig] { return !rig.accepted.empty(); }, 5'000'000));
  SocketEndpoint& server_ep = *rig.accepted.front();
  ReliableLink link(rig.reactor.queue(), server_ep.tx(), server_ep.rx(),
                    LinkConfig{});
  std::string link_error;
  link.set_on_error(
      [&link_error](const std::string& reason) { link_error = reason; });

  // Queued, not yet written: the flush runs on the next reactor turn.
  link.send_message(patterned(4096, 5));
  ASSERT_EQ(shutdown(peer, SHUT_WR), 0);
  linger hard{};
  hard.l_onoff = 1;
  hard.l_linger = 0;
  ASSERT_EQ(setsockopt(peer, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard)), 0);
  ASSERT_EQ(close(peer), 0);
  // Let loopback deliver the FIN and the RST before the server writes.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  ASSERT_TRUE(rig.reactor.run_until([&link] { return link.dead(); },
                                    2'000'000));
  EXPECT_NE(link_error.find("bearer:"), std::string::npos) << link_error;
  EXPECT_FALSE(server_ep.open());
}

// The bearer stops reading after a short read and relies on
// level-triggered epoll to report what arrives later. A raw peer writes
// one frame in two parts with a reactor turn between them, then a partial
// frame followed by FIN: the split frame must reassemble, and the EOF
// behind the short read must still fail the connection.
TEST(SocketBearer, SplitFrameAndEofAfterShortReadAreSeen) {
  REQUIRE_SOCKETS();
  EchoRig rig;
  rig.echo = false;
  const int peer = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(peer, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(rig.listener->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(peer, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_TRUE(rig.reactor.run_until(
      [&rig] { return !rig.accepted.empty(); }, 5'000'000));
  SocketEndpoint& server_ep = *rig.accepted.front();
  std::vector<Bytes> got;
  server_ep.rx().set_receiver([&got](ConstBytes frame) {
    got.emplace_back(frame.begin(), frame.end());
  });
  std::string error;
  server_ep.rx().set_on_channel_error(
      [&error](const std::string& reason) { error = reason; });

  const Bytes payload = patterned(3000, 7);
  Bytes wire;
  FrameCodec::append_frame(wire, payload);
  const std::size_t half = wire.size() / 2;
  ASSERT_EQ(write(peer, wire.data(), half), static_cast<ssize_t>(half));
  ASSERT_TRUE(rig.reactor.run_until(
      [&server_ep, half] {
        return server_ep.stats().bytes_received == half;
      },
      5'000'000));
  EXPECT_TRUE(got.empty());
  const std::size_t rest = wire.size() - half;
  ASSERT_EQ(write(peer, wire.data() + half, rest),
            static_cast<ssize_t>(rest));
  ASSERT_TRUE(rig.reactor.run_until([&got] { return !got.empty(); },
                                    5'000'000));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], payload);

  // Three bytes of a header, then FIN.
  ASSERT_EQ(write(peer, wire.data(), 3), 3);
  ASSERT_EQ(close(peer), 0);
  ASSERT_TRUE(rig.reactor.run_until([&server_ep] { return !server_ep.open(); },
                                    5'000'000));
  EXPECT_EQ(error, "peer closed connection");
  EXPECT_EQ(server_ep.stats().bytes_received, wire.size() + 3);
  EXPECT_EQ(got.size(), 1u);
}

TEST(SocketBearer, ArenaSteadyStateAcrossConnectionChurn) {
  REQUIRE_SOCKETS();
  EchoRig rig;
  rig.arena.reserve(16);
  const std::uint64_t reserved = rig.arena.stats().allocations;
  // Sequential connect → echo → close cycles: each connection borrows
  // slabs and returns them, so the pool never grows past the reserve.
  for (int round = 0; round < 10; ++round) {
    auto client = connect_endpoint(rig.reactor, rig.arena, rig.config,
                                   rig.listener->port());
    Bytes got;
    client->rx().set_receiver([&got](ConstBytes frame) {
      got.assign(frame.begin(), frame.end());
    });
    Bytes msg = patterned(3000, static_cast<std::uint8_t>(round));
    client->tx().send(msg);
    ASSERT_TRUE(rig.reactor.run_until(
        [&got, &msg] { return got == msg; }, 5'000'000));
    client->close_quiet();
    // Let the server observe the close and clean up before the next
    // round, so churn really exercises recycle, not accumulation.
    rig.reactor.run_until(
        [&rig, round] {
          return !rig.accepted[static_cast<std::size_t>(round)]->open();
        },
        5'000'000);
  }
  EXPECT_EQ(rig.arena.stats().allocations, reserved)
      << "record path must not allocate past the pre-reserve";
  EXPECT_GT(rig.arena.stats().recycles, 0u);
}

TEST(SocketBearer, PausedListenerAcceptsNothingUntilResumed) {
  REQUIRE_SOCKETS();
  SocketConfig cfg;
  cfg.listen_backlog = 1;
  EchoRig rig(cfg);
  rig.listener->set_paused(true);

  auto a = connect_endpoint(rig.reactor, rig.arena, rig.config,
                            rig.listener->port());
  auto b = connect_endpoint(rig.reactor, rig.arena, rig.config,
                            rig.listener->port());
  // Give the reactor real time: nothing may be accepted while paused —
  // the kernel queue absorbs (or refuses) the SYNs, the application
  // layer never sees them. This is the accept-queue-overflow fault.
  rig.reactor.run_until([] { return false; }, 200'000);
  EXPECT_EQ(rig.listener->accepted(), 0u);
  EXPECT_TRUE(rig.accepted.empty());

  rig.listener->set_paused(false);
  ASSERT_TRUE(rig.reactor.run_until(
      [&rig] { return rig.accepted.size() == 2; }, 5'000'000));
  EXPECT_EQ(rig.listener->accepted(), 2u);
}

TEST(SocketBearer, OversizeInboundFrameKillsConnectionCleanly) {
  REQUIRE_SOCKETS();
  SocketConfig small;
  small.max_frame_bytes = 1024;
  MonotonicClock clock;
  Reactor reactor(clock);
  BufferArena arena;
  SocketListener listener(reactor, arena, small, 0);
  std::unique_ptr<SocketEndpoint> server_ep;
  std::string server_error;
  listener.set_on_accept([&](std::unique_ptr<SocketEndpoint> ep) {
    ep->rx().set_receiver([](ConstBytes) {});
    ep->rx().set_on_channel_error(
        [&server_error](const std::string& reason) { server_error = reason; });
    server_ep = std::move(ep);
  });
  // The attacker's side is unbounded, so it happily sends a frame the
  // server's bound rejects from the 4-byte prefix alone.
  SocketConfig unbounded;
  auto attacker = connect_endpoint(reactor, arena, unbounded,
                                   listener.port());
  attacker->tx().send(patterned(4096, 1));
  ASSERT_TRUE(reactor.run_until(
      [&server_ep] { return server_ep && !server_ep->open(); }, 5'000'000));
  EXPECT_NE(server_error.find("exceeds bound"), std::string::npos)
      << server_error;
  EXPECT_EQ(arena.stats().acquires,
            arena.stats().recycles + arena.stats().in_use);
}

// The reactor sleeps to the microsecond deadline its queue asks for. A
// timer 300 us out must fire well under a millisecond late; rounding the
// epoll timeout up to whole milliseconds makes it at least 700 us late.
TEST(ReactorTest, TimerFiresNearItsMicrosecondDeadline) {
  MonotonicClock clock;
  Reactor reactor(clock);
  std::vector<SimTime> lateness;
  for (int trial = 0; trial < 21; ++trial) {
    reactor.poll(0);  // bring the queue's clock up to now
    const SimTime deadline = clock.now_us() + 300;
    SimTime fired_at = 0;
    reactor.queue().schedule_at(deadline,
                                [&] { fired_at = clock.now_us(); });
    for (int turn = 0; turn < 100 && fired_at == 0; ++turn)
      reactor.poll(5'000);
    ASSERT_NE(fired_at, 0u) << "timer never fired";
    ASSERT_GE(fired_at, deadline);
    lateness.push_back(fired_at - deadline);
  }
  std::nth_element(lateness.begin(), lateness.begin() + 10, lateness.end());
  EXPECT_LT(lateness[10], 400u) << "median lateness in us";
}

}  // namespace
}  // namespace mapsec::net
