// Table-driven renegotiation matrix: every
//   {initiator: client, server} x {resume basis} x {suite transition}
// cell, plus the lifecycle invariants (initiator send quiesce, in-flight
// drain under the old cipher, cumulative counters, policy refusals).
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "mapsec/crypto/rng.hpp"
#include "mapsec/protocol/handshake.hpp"
#include "mapsec/ticket/ticket.hpp"

namespace mapsec::protocol {
namespace {

using crypto::Bytes;
using crypto::to_bytes;

constexpr std::uint64_t kNow = 1'050'000'000;

enum class Initiator { kClient, kServer };
// What the renegotiation offers as its resumption basis.
enum class Resume {
  kTicket,        // stateless: the ticket issued in the first handshake
  kSessionId,     // stateful: server session cache
  kNone,          // client declines to offer (attempt_resume = false)
  kPolicyDenied,  // offered, but server resume_on_renegotiate = false
};
// Suite movement across the renegotiation.
enum class Transition {
  kSame,       // rekey on the unchanged suite
  kCbcToAead,  // CBC+HMAC session rekeys onto the CCM AEAD suite
  kAeadToCbc,  // AEAD session rekeys back onto CBC+HMAC
  kDropOld,    // resume offered, but the new offer excludes the old suite:
               // the server must fall back to a FULL handshake on the new
               // suite even though the resumption basis was valid
};

struct Cell {
  const char* name;
  Initiator initiator;
  Resume resume;
  Transition transition;
};

// Print a cell as its name: the default byte dump would show the address
// of `name`, which changes from run to run and so would the test names.
void PrintTo(const Cell& cell, std::ostream* os) { *os << cell.name; }

// Server-initiated renegotiation replays the client's configured offer
// (the HelloRequest handler calls start_renegotiate with defaults), so
// suite transitions are driven from client-initiated cells; server cells
// cover every resume basis on the unchanged suite.
const Cell kCells[] = {
    {"client_ticket_same", Initiator::kClient, Resume::kTicket,
     Transition::kSame},
    {"client_sid_same", Initiator::kClient, Resume::kSessionId,
     Transition::kSame},
    {"client_full_same", Initiator::kClient, Resume::kNone,
     Transition::kSame},
    {"client_denied_same", Initiator::kClient, Resume::kPolicyDenied,
     Transition::kSame},
    {"client_full_cbc_to_aead", Initiator::kClient, Resume::kNone,
     Transition::kCbcToAead},
    {"client_full_aead_to_cbc", Initiator::kClient, Resume::kNone,
     Transition::kAeadToCbc},
    {"client_ticket_drop_old", Initiator::kClient, Resume::kTicket,
     Transition::kDropOld},
    {"client_sid_drop_old", Initiator::kClient, Resume::kSessionId,
     Transition::kDropOld},
    {"client_ticket_aead_same", Initiator::kClient, Resume::kTicket,
     Transition::kCbcToAead},  // see body: resume declined, AEAD reached,
                               // then a SECOND reneg ticket-resumes on AEAD
    {"server_ticket_same", Initiator::kServer, Resume::kTicket,
     Transition::kSame},
    {"server_sid_same", Initiator::kServer, Resume::kSessionId,
     Transition::kSame},
    {"server_denied_same", Initiator::kServer, Resume::kPolicyDenied,
     Transition::kSame},
};

class RenegotiateMatrixTest : public ::testing::TestWithParam<Cell> {
 protected:
  static void SetUpTestSuite() {
    crypto::HmacDrbg rng(0x7157);
    ca_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    server_key_ = new crypto::RsaKeyPair(crypto::rsa_generate(rng, 512));
    ca_ = new CertificateAuthority("TestRoot", *ca_key_, 0, kNow * 2);
    server_cert_ = new Certificate(
        ca_->issue("server.test", server_key_->pub, 0, kNow * 2));
  }
  static void TearDownTestSuite() {
    delete server_cert_;
    delete ca_;
    delete server_key_;
    delete ca_key_;
  }

  HandshakeConfig client_config(crypto::Rng& rng) const {
    HandshakeConfig cfg;
    cfg.rng = &rng;
    cfg.now = kNow;
    cfg.trusted_roots = {ca_->root()};
    cfg.allow_renegotiation = true;
    return cfg;
  }

  HandshakeConfig server_config(crypto::Rng& rng) const {
    HandshakeConfig cfg;
    cfg.rng = &rng;
    cfg.now = kNow;
    cfg.cert_chain = {*server_cert_};
    cfg.private_key = &server_key_->priv;
    cfg.allow_renegotiation = true;
    return cfg;
  }

  /// Ping-pong flights until neither side is renegotiating.
  static void pump(TlsClient& client, TlsServer& server, Bytes flight,
                   bool to_server) {
    while (client.renegotiating() || server.renegotiating() ||
           !flight.empty()) {
      if (to_server) {
        flight = server.process(flight);
      } else {
        flight = client.process(flight);
      }
      to_server = !to_server;
    }
  }

  static crypto::RsaKeyPair* ca_key_;
  static crypto::RsaKeyPair* server_key_;
  static CertificateAuthority* ca_;
  static Certificate* server_cert_;
};

crypto::RsaKeyPair* RenegotiateMatrixTest::ca_key_ = nullptr;
crypto::RsaKeyPair* RenegotiateMatrixTest::server_key_ = nullptr;
CertificateAuthority* RenegotiateMatrixTest::ca_ = nullptr;
Certificate* RenegotiateMatrixTest::server_cert_ = nullptr;

TEST_P(RenegotiateMatrixTest, Cell) {
  const Cell cell = GetParam();
  ticket::TicketKeyRing ring(0x33, {});
  ticket::TicketCodec codec(ring);
  SessionCache cache;
  crypto::HmacDrbg crng(1), srng(2);

  const CipherSuite kCbc = CipherSuite::kRsaAes128CbcSha;
  const CipherSuite kAead = CipherSuite::kRsaAes128Ccm8;
  const CipherSuite initial =
      cell.transition == Transition::kAeadToCbc ? kAead : kCbc;

  HandshakeConfig ccfg = client_config(crng);
  ccfg.offered_suites = {initial};
  const bool wants_ticket = cell.resume == Resume::kTicket ||
                            cell.resume == Resume::kPolicyDenied;
  ccfg.request_session_ticket = wants_ticket;

  HandshakeConfig scfg = server_config(srng);
  scfg.offered_suites = {kCbc, kAead};
  scfg.ticket_codec = wants_ticket ? &codec : nullptr;
  scfg.resume_on_renegotiate = cell.resume != Resume::kPolicyDenied;

  TlsClient client(ccfg);
  const bool use_cache = cell.resume == Resume::kSessionId ||
                         cell.resume == Resume::kPolicyDenied;
  TlsServer server(scfg, use_cache ? &cache : nullptr);
  run_handshake(client, server);
  ASSERT_TRUE(client.established());
  const Bytes master1 = client.master_secret();
  ASSERT_EQ(client.summary().suite, initial);

  // One application record each way under the first key block.
  ASSERT_EQ(server.recv_data(client.send_data(to_bytes("pre"))).size(), 1u);
  ASSERT_EQ(client.recv_data(server.send_data(to_bytes("erp"))).size(), 1u);

  // ---- renegotiate ----
  RenegotiateOptions opts;
  opts.attempt_resume = cell.resume != Resume::kNone;
  CipherSuite expect_suite = initial;
  switch (cell.transition) {
    case Transition::kSame:
      break;
    case Transition::kCbcToAead:
      opts.offered_suites = {kAead};
      expect_suite = kAead;
      break;
    case Transition::kAeadToCbc:
      opts.offered_suites = {kCbc};
      expect_suite = kCbc;
      break;
    case Transition::kDropOld:
      // Resumption basis is valid but the old suite is gone from the
      // offer: the server must ignore the resume and go full on AEAD.
      opts.offered_suites = {kAead};
      expect_suite = kAead;
      break;
  }

  if (cell.initiator == Initiator::kClient) {
    Bytes flight = client.start_renegotiate(opts);
    EXPECT_TRUE(client.renegotiating());
    pump(client, server, std::move(flight), /*to_server=*/true);
  } else {
    Bytes hello_req = server.request_renegotiate();
    // The server is not yet renegotiating — HelloRequest is an invitation;
    // its handshake state resets when the ClientHello arrives.
    EXPECT_FALSE(server.renegotiating());
    // The HelloRequest triggers the client's renegotiation in process().
    pump(client, server, std::move(hello_req), /*to_server=*/false);
  }

  ASSERT_TRUE(client.established());
  ASSERT_TRUE(server.established());
  EXPECT_FALSE(client.renegotiating());
  EXPECT_FALSE(server.renegotiating());
  EXPECT_EQ(client.summary().renegotiations, 1);
  EXPECT_EQ(server.summary().renegotiations, 1);
  EXPECT_EQ(client.summary().suite, expect_suite);
  EXPECT_EQ(server.summary().suite, expect_suite);

  const bool expect_resumed = (cell.resume == Resume::kTicket ||
                               cell.resume == Resume::kSessionId) &&
                              cell.transition != Transition::kDropOld &&
                              cell.transition == Transition::kSame;
  EXPECT_EQ(client.summary().resumed, expect_resumed) << cell.name;
  EXPECT_EQ(client.summary().ticket_resumed,
            expect_resumed && cell.resume == Resume::kTicket);
  if (expect_resumed) {
    // Pure rekey: same master secret, fresh key block.
    EXPECT_EQ(client.master_secret(), master1);
  } else {
    // Full handshake: fresh master secret.
    EXPECT_NE(client.master_secret(), master1);
  }
  EXPECT_EQ(client.master_secret(), server.master_secret());

  // The new key block carries data in both directions.
  const auto got_s = server.recv_data(client.send_data(to_bytes("post")));
  ASSERT_EQ(got_s.size(), 1u);
  EXPECT_EQ(got_s[0], to_bytes("post"));
  const auto got_c = client.recv_data(server.send_data(to_bytes("tsop")));
  ASSERT_EQ(got_c.size(), 1u);
  EXPECT_EQ(got_c[0], to_bytes("tsop"));

  // kTicket + kCbcToAead cell: the AEAD session now holds a ticket issued
  // on the new suite — a SECOND renegotiation ticket-resumes on AEAD
  // (aead->aead rekey), proving resumption works from an AEAD session.
  if (cell.resume == Resume::kTicket &&
      cell.transition == Transition::kCbcToAead) {
    ASSERT_TRUE(client.has_session_ticket());
    RenegotiateOptions again;
    again.offered_suites = {kAead};
    Bytes flight = client.start_renegotiate(again);
    pump(client, server, std::move(flight), /*to_server=*/true);
    EXPECT_TRUE(client.summary().ticket_resumed) << "aead ticket rekey";
    EXPECT_EQ(client.summary().suite, kAead);
    EXPECT_EQ(client.summary().renegotiations, 2);  // cumulative
    ASSERT_EQ(server.recv_data(client.send_data(to_bytes("x"))).size(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RenegotiateMatrixTest, ::testing::ValuesIn(kCells),
    [](const ::testing::TestParamInfo<Cell>& info) {
      return std::string(info.param.name);
    });

// ---- lifecycle invariants outside the matrix ------------------------------

using RenegotiateLifecycleTest = RenegotiateMatrixTest;

TEST_F(RenegotiateLifecycleTest, InitiatorSendQuiescesButDrainsInFlight) {
  crypto::HmacDrbg crng(1), srng(2);
  TlsClient client(client_config(crng));
  TlsServer server(server_config(srng));
  run_handshake(client, server);

  // Two records leave the server under the OLD cipher before it learns of
  // the renegotiation.
  const Bytes w1 = server.send_data(to_bytes("in-flight 1"));
  const Bytes w2 = server.send_data(to_bytes("in-flight 2"));

  Bytes hello = client.start_renegotiate();
  // Initiator quiesce: no new app data while renegotiating...
  EXPECT_THROW(client.send_data(to_bytes("nope")), HandshakeError);
  // ...but in-order delivery means the old-cipher records arrive before
  // the server's renegotiation flight, and they still decrypt.
  EXPECT_EQ(client.recv_data(w1).at(0), to_bytes("in-flight 1"));

  Bytes server_flight = server.process(hello);
  // w2 was transmitted before that flight: drain it before the CCS inside
  // the flight swaps the client's read cipher.
  EXPECT_EQ(client.recv_data(w2).at(0), to_bytes("in-flight 2"));

  pump(client, server, std::move(server_flight), /*to_server=*/false);
  EXPECT_FALSE(client.renegotiating());
  // Quiesce lifts once the new key block is live.
  EXPECT_EQ(server.recv_data(client.send_data(to_bytes("after"))).size(),
            1u);
}

TEST_F(RenegotiateLifecycleTest, DisallowedByConfigThrows) {
  crypto::HmacDrbg crng(1), srng(2);
  HandshakeConfig ccfg = client_config(crng);
  ccfg.allow_renegotiation = false;
  HandshakeConfig scfg = server_config(srng);
  scfg.allow_renegotiation = false;
  TlsClient client(ccfg);
  TlsServer server(scfg);
  run_handshake(client, server);

  EXPECT_THROW(client.start_renegotiate(), HandshakeError);
  EXPECT_THROW(server.request_renegotiate(), HandshakeError);
}

TEST_F(RenegotiateLifecycleTest, HelloRequestRefusedWhenClientDisallows) {
  crypto::HmacDrbg crng(1), srng(2);
  HandshakeConfig ccfg = client_config(crng);
  ccfg.allow_renegotiation = false;  // server allows, client does not
  TlsClient client(ccfg);
  TlsServer server(server_config(srng));
  run_handshake(client, server);

  const Bytes hello_req = server.request_renegotiate();
  EXPECT_THROW(client.process(hello_req), HandshakeError);
}

TEST_F(RenegotiateLifecycleTest, DoubleStartThrows) {
  crypto::HmacDrbg crng(1), srng(2);
  TlsClient client(client_config(crng));
  TlsServer server(server_config(srng));
  run_handshake(client, server);

  (void)client.start_renegotiate();
  EXPECT_THROW(client.start_renegotiate(), HandshakeError);
}

TEST_F(RenegotiateLifecycleTest, BeforeEstablishedThrows) {
  crypto::HmacDrbg crng(1), srng(2);
  TlsClient client(client_config(crng));
  TlsServer server(server_config(srng));
  EXPECT_THROW(client.start_renegotiate(), HandshakeError);
  EXPECT_THROW(server.request_renegotiate(), HandshakeError);
}

}  // namespace
}  // namespace mapsec::protocol
