// PRF and record-layer tests.
#include <gtest/gtest.h>

#include "mapsec/crypto/rng.hpp"
#include "mapsec/crypto/sha256.hpp"
#include "mapsec/protocol/prf.hpp"
#include "mapsec/protocol/record.hpp"
#include "mapsec/protocol/suites.hpp"

namespace mapsec::protocol {
namespace {

using crypto::Bytes;
using crypto::ConstBytes;
using crypto::to_bytes;

// ---- PRF ---------------------------------------------------------------------

TEST(PrfTest, DeterministicAndLengthExact) {
  const Bytes secret = to_bytes("secret");
  const Bytes seed = to_bytes("seed");
  for (std::size_t len : {1u, 12u, 20u, 48u, 104u, 200u}) {
    const Bytes a = tls_prf(secret, "label", seed, len);
    const Bytes b = tls_prf(secret, "label", seed, len);
    EXPECT_EQ(a.size(), len);
    EXPECT_EQ(a, b);
  }
}

TEST(PrfTest, LabelAndSeedSeparation) {
  const Bytes secret = to_bytes("secret");
  const Bytes seed = to_bytes("seed");
  const Bytes a = tls_prf(secret, "master secret", seed, 48);
  const Bytes b = tls_prf(secret, "key expansion", seed, 48);
  const Bytes c = tls_prf(secret, "master secret", to_bytes("other"), 48);
  const Bytes d = tls_prf(to_bytes("secret2"), "master secret", seed, 48);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
}

TEST(PrfTest, PHashExpansionsDiffer) {
  const Bytes s = to_bytes("s"), seed = to_bytes("x");
  EXPECT_NE(p_md5(s, seed, 32), p_sha1(s, seed, 32));
}

TEST(PrfTest, KeyBlockPartitionIsDisjointAndStable) {
  crypto::HmacDrbg rng(1);
  const Bytes master = rng.bytes(48);
  const Bytes cr = rng.bytes(32), sr = rng.bytes(32);
  const KeyBlock kb = derive_key_block(master, cr, sr, 20, 24, 8);
  EXPECT_EQ(kb.client_mac_key.size(), 20u);
  EXPECT_EQ(kb.server_mac_key.size(), 20u);
  EXPECT_EQ(kb.client_enc_key.size(), 24u);
  EXPECT_EQ(kb.server_enc_key.size(), 24u);
  EXPECT_EQ(kb.client_iv.size(), 8u);
  EXPECT_EQ(kb.server_iv.size(), 8u);
  EXPECT_NE(kb.client_enc_key, kb.server_enc_key);
  EXPECT_NE(kb.client_mac_key, kb.server_mac_key);
  // Same inputs -> same block.
  const KeyBlock kb2 = derive_key_block(master, cr, sr, 20, 24, 8);
  EXPECT_EQ(kb.client_enc_key, kb2.client_enc_key);
}

TEST(PrfTest, MasterSecretIs48Bytes) {
  crypto::HmacDrbg rng(2);
  const Bytes pm = rng.bytes(48);
  const Bytes ms = derive_master_secret(pm, rng.bytes(32), rng.bytes(32));
  EXPECT_EQ(ms.size(), 48u);
}

// Golden expansions. P_MD5, P_SHA1 and the TLS 1.0 PRF at lengths that
// end inside, exactly on and one past a digest block (MD5 16 B, SHA-1 20 B),
// plus the Finished (12 B), master-secret (48 B) and key-block (104 B)
// lengths. The secret has odd length, so tls_prf's halves overlap. Each
// digest is the SHA-256 of the output; all 24 also match a Python
// hmac/hashlib model of RFC 2246 section 5.
TEST(PrfTest, GoldenExpansions) {
  struct Row {
    std::size_t len;
    const char* p_md5;
    const char* p_sha1;
    const char* tls_prf;
  };
  const Row rows[] = {
      {1, "591b7cc95037822dec5a4d593a2e2e8b19c07ddd2570e5699003d17f14c440a6",
           "2f0fd1e89b8de1d57292742ec380ea47066e307ad645f5bc3adad8a06ff58608",
           "ee6bb86b44339392bae631c8f61dd8f009243c635adab33c0b20923a2794bf22"},
      {12, "965cf5f1f8065ecb7aa7f271e4a39d8fb93e9ef10776faa5e95845805ef789a7",
           "bd45253ec6a7ecf635e13c5659c64fd77d1c55c3e7ac6ceb2cd8859a9979c3df",
           "8fc7112b786cf97e5c69076f96c9e10826806668803977f5b1352e2b1f12fcb1"},
      {16, "b1876dec5039ef290bea3d7878f44ca005a4cc78ed18f3d9e52468b451d7f08e",
           "a72c1f409e1b8e3d82eb525a21c26cac2c958348bc4e753e37ed9cf18f19f3dd",
           "1504bd67697303509d16d9392c5c73a75923fab4a2f6f3a1d8a26451c82ad6fe"},
      {20, "75c5cb5b0e978c093789e5ff77f2b250eca5188a88bd9ff7618e8c41f5a90c5f",
           "b0e35e258b56023b8b56dc7a60926156d179aa97fd9cc3d9ab09344c5422ce3c",
           "c492c0fedbfd8754249a90a76dcfb14113cdfeb0cba563fafcd61ce7042c0cd6"},
      {36, "e0280e955380df854e913e5b1eef69b61cad45a2aab594082432f967a6f9abdb",
           "b0f00d3bad15b6791f0580963f8675590734e09c8617c913480485aee530b842",
           "a7952f79d9e358b3d6bdd92c7d15db2811fca4e867b252e988cce43dfd736bac"},
      {48, "422c5cefa47e02ae737a37937af6ed13cd8a8a187e9231e23e177ad6adc73e0e",
           "13883ccf9fe84eaa7ba6bcaaad71ee6b678fd6c7523e9adca20513ea3cdebad5",
           "4f780d9b44be9b5bdc9b5871c72446c70ee90ea90206651653c88cf1ead4b01d"},
      {104, "eb9249790eb2f1e96add483c032991fa5783d094e670f7b607bf13757a9a4734",
           "d1ef60351cf1a73654cf1fc8883b4569bcceefa66aae6ace42e4fff0ecc1a543",
           "eb18f2529ef317092d9c07f327678b6497d18fc6c795f49e6598d61fdb1bd88c"},
      {160, "a4dcf0adda39ed87ea6eb81de16b5d0bc7fef6b9ded72b1ac04c614ef9eaf67e",
           "faa0d76d3ec36dde69df00b74cc780aa68764f703b0c41c3fb0f11bc48db9daf",
           "1baaf1cc7815c61d8df0dfd88e5f8c3986ce0977ccfb9f1bb2a9a843577c1ca6"},
  };
  const Bytes secret = to_bytes("golden prf secret");
  const Bytes seed = to_bytes("golden prf seed");
  const auto digest = [](const Bytes& out) {
    return crypto::to_hex(crypto::Sha256::hash(out));
  };
  for (const Row& r : rows) {
    const Bytes m = p_md5(secret, seed, r.len);
    const Bytes s = p_sha1(secret, seed, r.len);
    const Bytes t = tls_prf(secret, "golden label", seed, r.len);
    ASSERT_EQ(m.size(), r.len);
    EXPECT_EQ(digest(m), r.p_md5) << "P_MD5 len " << r.len;
    EXPECT_EQ(digest(s), r.p_sha1) << "P_SHA1 len " << r.len;
    EXPECT_EQ(digest(t), r.tls_prf) << "tls_prf len " << r.len;
  }
}

// ---- record codec -------------------------------------------------------------

class RecordSuiteTest : public ::testing::TestWithParam<CipherSuite> {
 protected:
  // A matched sender/receiver pair for the suite under test.
  void make_pair(RecordCodec& tx, RecordCodec& rx) {
    const SuiteInfo& suite = suite_info(GetParam());
    crypto::HmacDrbg rng(42);
    const Bytes enc_key = rng.bytes(suite.key_len);
    const Bytes mac_key = rng.bytes(suite.mac_len);
    const Bytes iv = rng.bytes(suite.block_len == 0 ? 16 : suite.block_len);
    tx.activate(suite, enc_key, mac_key, iv);
    rx.activate(suite, enc_key, mac_key, iv);
  }
};

TEST_P(RecordSuiteTest, SealOpenRoundTrip) {
  RecordCodec tx, rx;
  make_pair(tx, rx);
  for (int i = 0; i < 5; ++i) {
    const Bytes payload = to_bytes("application payload #" +
                                   std::to_string(i));
    const Bytes wire =
        tx.seal(RecordType::kApplicationData, ProtocolVersion::kTls10, payload);
    const Record rec = rx.open(wire);
    EXPECT_EQ(rec.type, RecordType::kApplicationData);
    EXPECT_EQ(rec.payload, payload);
  }
}

TEST_P(RecordSuiteTest, CiphertextHidesPlaintext) {
  RecordCodec tx, rx;
  make_pair(tx, rx);
  const Bytes payload = to_bytes("SECRET-SECRET-SECRET-SECRET");
  const Bytes wire =
      tx.seal(RecordType::kApplicationData, ProtocolVersion::kTls10, payload);
  // The plaintext must not appear in the wire bytes.
  const auto it = std::search(wire.begin(), wire.end(), payload.begin(),
                              payload.end());
  EXPECT_EQ(it, wire.end());
}

TEST_P(RecordSuiteTest, TamperDetected) {
  RecordCodec tx, rx;
  make_pair(tx, rx);
  Bytes wire = tx.seal(RecordType::kApplicationData, ProtocolVersion::kTls10,
                       to_bytes("authentic"));
  wire[wire.size() - 1] ^= 0x01;
  EXPECT_THROW(rx.open(wire), std::runtime_error);
}

TEST_P(RecordSuiteTest, ReorderDetected) {
  // Sequence numbers are implicit: swapping two records breaks the MAC
  // (or, for stream suites, the keystream alignment).
  RecordCodec tx, rx;
  make_pair(tx, rx);
  const Bytes w1 = tx.seal(RecordType::kApplicationData,
                           ProtocolVersion::kTls10, to_bytes("first"));
  const Bytes w2 = tx.seal(RecordType::kApplicationData,
                           ProtocolVersion::kTls10, to_bytes("second"));
  EXPECT_THROW(rx.open(w2), std::runtime_error);
}

TEST_P(RecordSuiteTest, ReplayDetected) {
  RecordCodec tx, rx;
  make_pair(tx, rx);
  const Bytes wire = tx.seal(RecordType::kApplicationData,
                             ProtocolVersion::kTls10, to_bytes("once"));
  EXPECT_EQ(rx.open(wire).payload, to_bytes("once"));
  EXPECT_THROW(rx.open(wire), std::runtime_error);
}

TEST_P(RecordSuiteTest, EmptyPayload) {
  RecordCodec tx, rx;
  make_pair(tx, rx);
  const Bytes wire =
      tx.seal(RecordType::kApplicationData, ProtocolVersion::kTls10, {});
  EXPECT_TRUE(rx.open(wire).payload.empty());
}

TEST_P(RecordSuiteTest, OverheadPrediction) {
  RecordCodec tx, rx;
  make_pair(tx, rx);
  for (std::size_t n : {0u, 1u, 7u, 8u, 100u}) {
    const Bytes payload(n, 0x61);
    RecordCodec probe, sink;
    make_pair(probe, sink);
    const Bytes wire = probe.seal(RecordType::kApplicationData,
                                  ProtocolVersion::kTls10, payload);
    EXPECT_EQ(wire.size(), n + probe.overhead(n)) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSuites, RecordSuiteTest, ::testing::ValuesIn(all_suites()),
    [](const ::testing::TestParamInfo<CipherSuite>& info) {
      return suite_info(info.param).name;
    });

TEST(RecordTest, NullCodecPassesThrough) {
  RecordCodec codec;
  const Bytes wire = codec.seal(RecordType::kHandshake,
                                ProtocolVersion::kTls10, to_bytes("hello"));
  RecordCodec reader;
  const Record rec = reader.open(wire);
  EXPECT_EQ(rec.type, RecordType::kHandshake);
  EXPECT_EQ(rec.payload, to_bytes("hello"));
}

TEST(RecordTest, SplitRecords) {
  RecordCodec codec;
  Bytes stream = codec.seal(RecordType::kHandshake, ProtocolVersion::kTls10,
                            to_bytes("one"));
  const Bytes second = codec.seal(RecordType::kAlert, ProtocolVersion::kTls10,
                                  to_bytes("two!"));
  stream.insert(stream.end(), second.begin(), second.end());
  stream.push_back(22);  // partial third record
  std::vector<Bytes> records;
  const std::size_t used = split_records(stream, records);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(used, stream.size() - 1);
}

TEST(RecordTest, MalformedInputs) {
  RecordCodec codec;
  EXPECT_THROW(codec.open(Bytes(3)), std::runtime_error);
  Bytes wire = codec.seal(RecordType::kHandshake, ProtocolVersion::kTls10,
                          to_bytes("x"));
  wire.pop_back();
  EXPECT_THROW(codec.open(wire), std::runtime_error);
}

TEST(RecordTest, SuiteTableConsistency) {
  for (const CipherSuite id : all_suites()) {
    const SuiteInfo& s = suite_info(id);
    EXPECT_EQ(s.id, id);
    EXPECT_FALSE(s.name.empty());
    EXPECT_EQ(s.mac_len, mac_length(s.mac));
    if (s.kind == BulkKind::kStream) {
      EXPECT_EQ(s.block_len, 0u);
    } else {
      EXPECT_GT(s.block_len, 0u);
    }
  }
  EXPECT_THROW(suite_info(static_cast<CipherSuite>(0x1234)),
               std::invalid_argument);
}

}  // namespace
}  // namespace mapsec::protocol
