// The programmable protocol engine: semantics (against the hand-written
// ESP implementation), flexibility (multiple protocols on one engine),
// and the cost model.
#include <gtest/gtest.h>

#include "mapsec/crypto/rng.hpp"
#include "mapsec/engine/protocol_engine.hpp"
#include "mapsec/protocol/esp.hpp"

namespace mapsec::engine {
namespace {

using crypto::Bytes;
using crypto::to_bytes;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : rng_(0xE9),
        engine_(EngineProfile{}, &rng_) {
    sa_.spi = 0x1001;
    sa_.cipher = protocol::BulkCipher::kDes3;
    sa_.enc_key = rng_.bytes(24);
    sa_.mac_key = rng_.bytes(20);
    engine_.load_program("esp-in", esp_inbound_program());
    engine_.load_program("esp-out", esp_outbound_program());
    engine_.load_program("wep-like-in", wep_inbound_like_program());
  }

  /// A real ESP packet from the hand-written sender, sharing keys.
  Bytes make_esp_packet(const Bytes& payload) {
    protocol::EspSa psa;
    psa.spi = sa_.spi;
    psa.cipher = sa_.cipher;
    psa.enc_key = sa_.enc_key;
    psa.mac_key = sa_.mac_key;
    if (!esp_sender_) esp_sender_ = std::make_unique<protocol::EspSender>(psa, &rng_);
    return esp_sender_->protect(payload);
  }

  crypto::HmacDrbg rng_;
  ProtocolEngine engine_;
  EngineSa sa_;
  std::unique_ptr<protocol::EspSender> esp_sender_;
};

TEST_F(EngineTest, EspInboundAcceptsRealEspPackets) {
  // Packets produced by the hand-written protocol::EspSender are accepted
  // and decrypted by the *programmed* engine — same protocol, expressed
  // as eight instructions.
  for (int i = 0; i < 5; ++i) {
    const Bytes payload = to_bytes("datagram " + std::to_string(i));
    const auto r = engine_.run("esp-in", sa_, make_esp_packet(payload));
    ASSERT_TRUE(r.accepted) << r.drop_reason;
    EXPECT_EQ(r.payload, payload);
    EXPECT_GT(r.cycles, 0);
  }
}

TEST_F(EngineTest, EspInboundMatchesHandWrittenDecisions) {
  // Decision-for-decision equivalence with protocol::EspReceiver on
  // good, tampered, and replayed packets.
  protocol::EspSa psa;
  psa.spi = sa_.spi;
  psa.cipher = sa_.cipher;
  psa.enc_key = sa_.enc_key;
  psa.mac_key = sa_.mac_key;
  protocol::EspReceiver reference(psa);

  const Bytes good = make_esp_packet(to_bytes("payload"));
  Bytes tampered = good;
  tampered[12] ^= 1;
  // Good packet: both accept.
  EXPECT_TRUE(engine_.run("esp-in", sa_, good).accepted);
  EXPECT_TRUE(reference.unprotect(good).has_value());
  // Replay: both reject.
  EXPECT_FALSE(engine_.run("esp-in", sa_, good).accepted);
  EXPECT_FALSE(reference.unprotect(good).has_value());
  // Tampered: both reject.
  EXPECT_FALSE(engine_.run("esp-in", sa_, tampered).accepted);
  EXPECT_FALSE(reference.unprotect(tampered).has_value());
}

TEST_F(EngineTest, DropReasonsAreSpecific) {
  EXPECT_EQ(engine_.run("esp-in", sa_, Bytes(4)).drop_reason, "short packet");

  Bytes wrong_spi = make_esp_packet(to_bytes("x"));
  wrong_spi[3] ^= 0xFF;
  EXPECT_EQ(engine_.run("esp-in", sa_, wrong_spi).drop_reason,
            "SPI mismatch");

  Bytes bad_mac = make_esp_packet(to_bytes("x"));
  bad_mac.back() ^= 1;
  EXPECT_EQ(engine_.run("esp-in", sa_, bad_mac).drop_reason, "MAC failure");
}

TEST_F(EngineTest, OutboundTheneInboundRoundTrip) {
  // Outbound program produces a packet the inbound program accepts.
  // Build the header (spi | seq) the way a host driver would.
  Bytes packet;
  packet.push_back(0x00);
  packet.push_back(0x00);
  packet.push_back(0x10);
  packet.push_back(0x01);  // spi 0x1001
  packet.push_back(0);
  packet.push_back(0);
  packet.push_back(0);
  packet.push_back(42);  // seq 42
  const Bytes payload = to_bytes("engine-protected data");
  packet.insert(packet.end(), payload.begin(), payload.end());

  const auto out = engine_.run("esp-out", sa_, packet);
  ASSERT_TRUE(out.accepted) << out.drop_reason;

  const Bytes wire = crypto::cat(out.header, out.payload);
  const auto in = engine_.run("esp-in", sa_, wire);
  ASSERT_TRUE(in.accepted) << in.drop_reason;
  EXPECT_EQ(in.payload, payload);
}

TEST_F(EngineTest, MultipleProtocolsOneEngine) {
  // The flexibility claim: three protocols resident simultaneously.
  EXPECT_EQ(engine_.program_count(), 3u);
  EXPECT_NO_THROW(engine_.run("wep-like-in", sa_, Bytes(64)));
  // A fourth "standard revision" is a load_program call, not a redesign.
  Program esp_v2 = esp_inbound_program();
  esp_v2[3].operand = 10;  // revised ICV length
  engine_.load_program("esp-in-v2", std::move(esp_v2));
  EXPECT_EQ(engine_.program_count(), 4u);
}

TEST_F(EngineTest, UnknownProgramThrows) {
  EXPECT_THROW(engine_.run("nonexistent", sa_, Bytes(64)),
               std::invalid_argument);
}

TEST_F(EngineTest, CostModelChargesPerByte) {
  const Bytes small = make_esp_packet(Bytes(64, 1));
  const Bytes big = make_esp_packet(Bytes(1024, 2));
  EngineSa sa1 = sa_, sa2 = sa_;
  const double c_small = engine_.run("esp-in", sa1, small).cycles;
  const double c_big = engine_.run("esp-in", sa2, big).cycles;
  EXPECT_GT(c_big, c_small * 5);
}

TEST_F(EngineTest, EngineBeatsSoftwareBaselineByOrderOfMagnitude) {
  // The Section 4.2.3 comparison, run on identical programs/packets.
  crypto::HmacDrbg rng2(0xEA);
  ProtocolEngine sw(EngineProfile::software_baseline(), &rng2);
  sw.load_program("esp-in", esp_inbound_program());

  const Bytes packet = make_esp_packet(Bytes(512, 3));
  EngineSa sa1 = sa_, sa2 = sa_;
  const double hw_mbps = engine_.throughput_mbps("esp-in", sa1, packet);
  const double sw_mbps = sw.throughput_mbps("esp-in", sa2, packet);
  EXPECT_GT(hw_mbps, sw_mbps * 10);
}

TEST_F(EngineTest, ThroughputDoesNotDisturbReplayState) {
  const Bytes packet = make_esp_packet(to_bytes("x"));
  (void)engine_.throughput_mbps("esp-in", sa_, packet);
  // The same packet is still fresh for the live SA.
  EXPECT_TRUE(engine_.run("esp-in", sa_, packet).accepted);
}

TEST(EngineValidationTest, RequiresRng) {
  EXPECT_THROW(ProtocolEngine(EngineProfile{}, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace mapsec::engine
