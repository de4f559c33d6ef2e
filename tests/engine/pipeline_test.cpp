// Packet pipeline behaviour: accept/drop decisions, output bytes and
// final anti-replay state of mixed ESP/CCMP batches, the per-SA isolation
// of removal, and a golden CCMP batch. The pipeline runs every batch on
// the caller's thread and starts none of its own.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>

#include "mapsec/crypto/ccm.hpp"
#include "mapsec/crypto/sha256.hpp"
#include "mapsec/engine/packet_pipeline.hpp"
#include "mapsec/protocol/suites.hpp"

namespace mapsec::engine {
namespace {

using crypto::Bytes;

constexpr std::size_t kNumSas = 6;
constexpr std::size_t kPacketsPerSa = 12;

Bytes make_header(std::uint32_t spi, std::uint32_t seq) {
  Bytes h(8);
  crypto::store_be32(h.data(), spi);
  crypto::store_be32(h.data() + 4, seq);
  return h;
}

bool sa_uses_ccmp(std::uint32_t sa_id) { return sa_id % 2 == 1; }

/// Build a pipeline with kNumSas SAs (alternating 3DES/ESP and AES/CCMP)
/// keyed deterministically.
std::unique_ptr<PacketPipeline> make_pipeline(std::size_t workers = 1) {
  auto p = std::make_unique<PacketPipeline>(EngineProfile{}, workers, 0xD5);
  p->load_program("esp-in", esp_inbound_program());
  p->load_program("esp-out", esp_outbound_program());
  p->load_program("ccmp-in", ccmp_inbound_program());
  p->load_program("ccmp-out", ccmp_outbound_program());
  for (std::uint32_t id = 0; id < kNumSas; ++id) {
    crypto::HmacDrbg keys(0x5A5A0000ull ^ id);
    EngineSa sa;
    sa.spi = 0x1000 + id;
    if (sa_uses_ccmp(id)) {
      sa.cipher = protocol::BulkCipher::kAes128;
      sa.enc_key = keys.bytes(16);
    } else {
      sa.cipher = protocol::BulkCipher::kDes3;
      sa.enc_key = keys.bytes(24);
    }
    sa.mac_key = keys.bytes(20);
    p->add_sa(id, sa);
  }
  return p;
}

std::vector<PipelineJob> outbound_jobs() {
  std::vector<PipelineJob> jobs;
  // Interleave SAs: each SA's packets arrive between other SAs' ones.
  for (std::size_t seq = 1; seq <= kPacketsPerSa; ++seq) {
    for (std::uint32_t id = 0; id < kNumSas; ++id) {
      PipelineJob j;
      j.sa_id = id;
      j.program = sa_uses_ccmp(id) ? "ccmp-out" : "esp-out";
      j.packet = make_header(0x1000 + id, static_cast<std::uint32_t>(seq));
      const Bytes body = crypto::to_bytes(
          "sa " + std::to_string(id) + " packet " + std::to_string(seq));
      j.packet.insert(j.packet.end(), body.begin(), body.end());
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

struct Observation {
  std::vector<std::tuple<bool, Bytes, Bytes, std::string>> results;
  std::map<std::uint32_t, std::pair<std::uint32_t, std::uint64_t>> replay;
};

bool operator==(const Observation& a, const Observation& b) {
  return a.results == b.results && a.replay == b.replay;
}

/// Protect a batch outbound, then run it inbound with a replayed
/// duplicate and a corrupted packet mixed in; observe everything.
Observation run_everything(std::size_t workers) {
  auto p = make_pipeline(workers);
  const auto out = p->run_batch(outbound_jobs());

  std::vector<PipelineJob> inbound;
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(out[i].accepted) << out[i].drop_reason;
    const std::uint32_t id = static_cast<std::uint32_t>(i % kNumSas);
    PipelineJob j;
    j.sa_id = id;
    j.program = sa_uses_ccmp(id) ? "ccmp-in" : "esp-in";
    j.packet = out[i].header;
    j.packet.insert(j.packet.end(), out[i].payload.begin(),
                    out[i].payload.end());
    inbound.push_back(j);
    if (i == 7) inbound.push_back(j);  // replayed duplicate: must drop
    if (i == 9) {                      // corrupted body: must fail auth
      PipelineJob bad = j;
      bad.packet[12] ^= 0x40;
      inbound.push_back(std::move(bad));
    }
  }

  Observation obs;
  for (const auto& r : p->run_batch(inbound))
    obs.results.emplace_back(r.accepted, r.header, r.payload, r.drop_reason);
  for (std::uint32_t id = 0; id < kNumSas; ++id)
    obs.replay[id] = {p->sa(id).highest_seq, p->sa(id).window};
  return obs;
}

// Duplicates and corruption dropped, everything else accepted and
// decrypted, replay windows advanced to the last sequence number. The
// two accepted worker counts, 0 and 1, are the same pipeline.
TEST(PipelineTest, WorkerCountDoesNotChangeBehaviour) {
  const Observation one = run_everything(1);
  std::size_t accepted = 0, dropped = 0;
  for (const auto& [ok, header, payload, reason] : one.results)
    ok ? ++accepted : ++dropped;
  EXPECT_EQ(accepted, kNumSas * kPacketsPerSa);
  EXPECT_EQ(dropped, 2u);
  for (std::uint32_t id = 0; id < kNumSas; ++id)
    EXPECT_EQ(one.replay.at(id).first, kPacketsPerSa);

  EXPECT_TRUE(run_everything(0) == one);
}

// More than one worker is a configuration error that points at the
// sharded tier, not a silent fallback to one.
TEST(PipelineTest, MoreThanOneWorkerIsRejected) {
  for (const std::size_t workers : {2u, 3u}) {
    try {
      PacketPipeline p(EngineProfile{}, workers);
      ADD_FAILURE() << workers << " workers accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("sharded tier"), std::string::npos)
          << e.what();
    }
  }
}

std::ptrdiff_t thread_count() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator{});
}

// Every batch runs on the caller's thread: building and running a
// pipeline starts no thread, an injected stall delays run_batch itself,
// and the results match an unstalled run.
TEST(PipelineTest, BuildingAndRunningStartsNoThread) {
  const std::ptrdiff_t before = thread_count();
  auto plain = make_pipeline();
  auto stalled = make_pipeline();

  constexpr std::chrono::milliseconds kStall{20};
  stalled->inject_stall(std::chrono::nanoseconds(kStall).count());
  const auto jobs = outbound_jobs();
  const auto start = std::chrono::steady_clock::now();
  const auto slow = stalled->run_batch(jobs);
  EXPECT_GE(std::chrono::steady_clock::now() - start, kStall);
  const auto fast = plain->run_batch(jobs);
  EXPECT_EQ(thread_count(), before);

  ASSERT_EQ(slow.size(), fast.size());
  for (std::size_t i = 0; i < slow.size(); ++i) {
    EXPECT_TRUE(slow[i].accepted) << slow[i].drop_reason;
    EXPECT_EQ(slow[i].header, fast[i].header);
    EXPECT_EQ(slow[i].payload, fast[i].payload);
    EXPECT_EQ(slow[i].engine_cycles, fast[i].engine_cycles);
  }
}

TEST(PipelineTest, UnknownSaIsDroppedNotFatal) {
  auto p = make_pipeline();
  PipelineJob j;
  j.sa_id = 999;
  j.program = "esp-in";
  j.packet = Bytes(64, 0xAB);
  const auto r = p->run_batch({j});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_FALSE(r[0].accepted);
  EXPECT_EQ(r[0].drop_reason, "unknown SA");
}

/// Seal outbound_jobs() as a stream of one-packet-per-SA batches; with
/// `remove_at` set, drop SA `victim` before that batch. Returns every
/// result in stream order.
std::vector<PipelineResult> sealed_stream(std::uint32_t victim,
                                          std::size_t remove_at) {
  auto p = make_pipeline();
  const std::vector<PipelineJob> jobs = outbound_jobs();
  std::vector<PipelineResult> out;
  for (std::size_t b = 0; b < kPacketsPerSa; ++b) {
    if (b == remove_at) {
      p->remove_sa(victim);
      EXPECT_EQ(p->sa_count(), kNumSas - 1);
    }
    const std::vector<PipelineJob> batch(
        jobs.begin() + static_cast<std::ptrdiff_t>(b * kNumSas),
        jobs.begin() + static_cast<std::ptrdiff_t>((b + 1) * kNumSas));
    for (PipelineResult& r : p->run_batch(batch)) out.push_back(std::move(r));
  }
  return out;
}

TEST(PipelineTest, RemovedSaLeavesEveryOtherSaBitIdentical) {
  constexpr std::uint32_t kVictim = 3;
  constexpr std::size_t kRemoveAt = 5;
  const auto kept = sealed_stream(kVictim, kPacketsPerSa);
  const auto removed = sealed_stream(kVictim, kRemoveAt);
  ASSERT_EQ(kept.size(), removed.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const auto sa = static_cast<std::uint32_t>(i % kNumSas);
    const std::size_t batch = i / kNumSas;
    if (sa == kVictim && batch >= kRemoveAt) {
      // A job on the removed id is refused, not a crash.
      EXPECT_FALSE(removed[i].accepted);
      EXPECT_EQ(removed[i].drop_reason, "unknown SA");
      continue;
    }
    ASSERT_TRUE(kept[i].accepted) << kept[i].drop_reason;
    EXPECT_TRUE(removed[i].accepted) << "job " << i;
    EXPECT_EQ(removed[i].header, kept[i].header);
    EXPECT_EQ(removed[i].payload, kept[i].payload) << "job " << i;
  }
}

TEST(PipelineTest, RemoveSaOfAnUnknownIdIsANoOp) {
  auto p = make_pipeline();
  p->remove_sa(999);
  EXPECT_EQ(p->sa_count(), kNumSas);
}

TEST(PipelineTest, CcmpRejectsTamperedAad) {
  // Flipping a header (AAD) bit after sealing must fail the CCM open.
  auto p = make_pipeline();
  PipelineJob out;
  out.sa_id = 1;  // CCMP SA
  out.program = "ccmp-out";
  out.packet = make_header(0x1001, 1);
  const Bytes body = crypto::to_bytes("authenticate the header too");
  out.packet.insert(out.packet.end(), body.begin(), body.end());
  const auto sealed = p->run_batch({out});
  ASSERT_TRUE(sealed[0].accepted);

  PipelineJob in;
  in.sa_id = 1;
  in.program = "ccmp-in";
  in.packet = sealed[0].header;
  in.packet[7] ^= 0x01;  // tweak seq inside the AAD
  in.packet.insert(in.packet.end(), sealed[0].payload.begin(),
                   sealed[0].payload.end());
  const auto r = p->run_batch({in});
  EXPECT_FALSE(r[0].accepted);
  EXPECT_EQ(r[0].drop_reason, "CCM auth failure");
}

// Golden CCMP batch. One run_batch over eight AES SAs mixes ragged
// outbound and inbound CCMP jobs with every drop the two programs can
// reach from the wire, plus an oversized packet and an unknown program.
// The digest covers every field of every result and each SA's final
// replay state, so any change to what the pipeline computes (nonce draw
// order, cycle charges, drop points, replay updates) moves it.
constexpr std::uint32_t kGoldenSas = 8;

std::size_t golden_len(std::size_t k) {
  if (k % 23 == 0) return 0;
  if (k == 1) return 1024;
  return (k * 389 + 17) % 1025;
}

Bytes golden_body(std::size_t k) {
  Bytes b(golden_len(k));
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<std::uint8_t>(k * 31 + i * 7);
  return b;
}

/// A CCMP-in packet for `sa`, sealed outside the pipeline with a fixed
/// nonce: header | nonce | ciphertext | tag.
Bytes golden_inbound(const EngineSa& sa, std::uint32_t seq, std::size_t k) {
  const auto cipher = protocol::make_suite_cipher(sa.cipher, sa.enc_key);
  Bytes packet = make_header(sa.spi, seq);
  const Bytes header = packet;
  Bytes nonce(crypto::kCcmNonceLen, static_cast<std::uint8_t>(k));
  nonce[0] = static_cast<std::uint8_t>(seq);
  packet.insert(packet.end(), nonce.begin(), nonce.end());
  const Bytes sealed =
      crypto::ccm_seal(*cipher, nonce, header, golden_body(k), 8);
  packet.insert(packet.end(), sealed.begin(), sealed.end());
  return packet;
}

std::string golden_digest() {
  auto p = std::make_unique<PacketPipeline>(EngineProfile{}, 1, 0x60);
  p->load_program("ccmp-in", ccmp_inbound_program());
  p->load_program("ccmp-out", ccmp_outbound_program());
  for (std::uint32_t id = 0; id < kGoldenSas; ++id) {
    crypto::HmacDrbg keys(0x601D0000ull ^ id);
    EngineSa sa;
    sa.spi = 0x2000 + id;
    sa.cipher = protocol::BulkCipher::kAes128;
    sa.enc_key = keys.bytes(16);
    p->add_sa(id, sa);
  }

  std::vector<PipelineJob> jobs;
  const auto add = [&](std::uint32_t sa_id, const std::string& program,
                       Bytes packet) {
    jobs.push_back({sa_id, program, std::move(packet)});
  };
  const auto outbound = [&](std::uint32_t sa_id, std::uint32_t seq,
                            std::size_t k) {
    Bytes packet = make_header(0x2000 + sa_id, seq);
    const Bytes body = golden_body(k);
    packet.insert(packet.end(), body.begin(), body.end());
    add(sa_id, "ccmp-out", std::move(packet));
  };
  std::size_t k = 0;
  // A run of sixteen outbound jobs, two per SA.
  for (std::uint32_t seq = 1; seq <= 2; ++seq)
    for (std::uint32_t id = 0; id < kGoldenSas; ++id) outbound(id, seq, k++);
  // A run of sixteen good inbound jobs, with the bad ones mixed in.
  for (std::uint32_t seq = 1; seq <= 2; ++seq)
    for (std::uint32_t id = 0; id < kGoldenSas; ++id)
      add(id, "ccmp-in", golden_inbound(p->sa(id), seq, k++));
  Bytes tampered = golden_inbound(p->sa(2), 3, k++);
  tampered[8 + crypto::kCcmNonceLen] ^= 0x20;
  add(2, "ccmp-in", std::move(tampered));                 // CCM auth failure
  add(5, "ccmp-in", golden_inbound(p->sa(5), 1, 21));     // replay
  add(6, "ccmp-in", golden_inbound(p->sa(4), 4, k++));    // SPI mismatch
  add(1, "ccmp-in", Bytes(20, 0x5C));                     // short packet
  add(3, "ccmp-out", make_header(0x2003, 9));             // empty body
  // Interleaved directions, split by an oversized packet and an unknown
  // program (both dropped by the job, never fatal to the batch).
  for (std::uint32_t id = 0; id < kGoldenSas; ++id) {
    outbound(id, 3, k++);
    add(id, "ccmp-in", golden_inbound(p->sa(id), 5, k++));
    if (id == 3) {
      Bytes big = make_header(0x2003, 10);
      big.resize(8 + 0x10000, 0xB1);
      add(3, "ccmp-out", std::move(big));
    }
    if (id == 6) add(6, "ccmp-bogus", Bytes(64, 0x11));
  }

  const std::vector<PipelineResult> results = p->run_batch(jobs);
  EXPECT_EQ(results.size(), jobs.size());
  std::map<std::string, int> reasons;
  std::size_t accepted = 0;
  crypto::Sha256 h;
  const auto put = [&](crypto::ConstBytes b) {
    std::uint8_t len[8];
    crypto::store_be64(len, b.size());
    h.update({len, 8});
    h.update(b);
  };
  for (const PipelineResult& r : results) {
    r.accepted ? ++accepted : ++reasons[r.drop_reason];
    const std::uint8_t ok = r.accepted ? 1 : 0;
    h.update({&ok, 1});
    put(r.header);
    put(r.payload);
    put(crypto::to_bytes(r.drop_reason));
    std::uint64_t cycles_bits = 0;
    std::memcpy(&cycles_bits, &r.engine_cycles, sizeof cycles_bits);
    std::uint8_t cycles[8];
    crypto::store_be64(cycles, cycles_bits);
    h.update({cycles, 8});
  }
  for (std::uint32_t id = 0; id < kGoldenSas; ++id) {
    std::uint8_t replay[12];
    crypto::store_be32(replay, p->sa(id).highest_seq);
    crypto::store_be64(replay + 4, p->sa(id).window);
    h.update({replay, 12});
  }

  // The golden would be worthless if the batch did not exercise what it
  // claims to: every good job accepted, every bad one dropped for its
  // own reason.
  EXPECT_EQ(accepted, 16u + 16u + 1u + 2u * kGoldenSas);
  EXPECT_EQ(reasons["CCM auth failure"], 1);
  EXPECT_EQ(reasons["replay"], 1);
  EXPECT_EQ(reasons["SPI mismatch"], 1);
  EXPECT_EQ(reasons["short packet"], 1);
  EXPECT_EQ(reasons["CCM: payload too long for L=2"], 1);
  EXPECT_EQ(reasons["ProtocolEngine: unknown program ccmp-bogus"], 1);
  EXPECT_EQ(reasons.size(), 6u);
  return crypto::to_hex(h.finish());
}

TEST(PipelineGolden, CcmpBatchResults) {
  const std::string golden =
      "30dd69ea082d6dba1280ce575c833298ec0c62f03a3e732f0aa7064d3e6c4a00";
  EXPECT_EQ(golden_digest(), golden);
}

}  // namespace
}  // namespace mapsec::engine
