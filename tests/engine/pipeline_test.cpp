// Multi-threaded pipeline determinism: sharding by SA must not change the
// protocol's observable behaviour. Accept/drop decisions, output bytes
// and final anti-replay state are compared across worker counts.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <iterator>
#include <map>

#include "mapsec/engine/packet_pipeline.hpp"

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
/// keyed deterministically, independent of worker count.
std::unique_ptr<PacketPipeline> make_pipeline(std::size_t workers) {
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
  // Interleave SAs so neighbouring jobs land on different workers.
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

TEST(PipelineTest, WorkerCountDoesNotChangeBehaviour) {
  const Observation one = run_everything(1);
  // Sanity on the single-worker reference: duplicates and corruption
  // dropped, everything else accepted and decrypted.
  std::size_t accepted = 0, dropped = 0;
  for (const auto& [ok, header, payload, reason] : one.results)
    ok ? ++accepted : ++dropped;
  EXPECT_EQ(accepted, kNumSas * kPacketsPerSa);
  EXPECT_EQ(dropped, 2u);
  for (std::uint32_t id = 0; id < kNumSas; ++id)
    EXPECT_EQ(one.replay.at(id).first, kPacketsPerSa);

  EXPECT_TRUE(run_everything(2) == one);
  EXPECT_TRUE(run_everything(4) == one);
  EXPECT_TRUE(run_everything(5) == one);  // workers != SA count, coprime
}

TEST(PipelineTest, StatsAccountForEveryPacket) {
  auto p = make_pipeline(3);
  const auto jobs = outbound_jobs();
  const auto results = p->run_batch(jobs);
  ASSERT_EQ(results.size(), jobs.size());
  std::uint64_t packets = 0;
  double cycles = 0;
  for (const auto& st : p->stats()) {
    packets += st.packets;
    cycles += st.engine_cycles;
    EXPECT_EQ(st.batches, 1u);
  }
  EXPECT_EQ(packets, jobs.size());
  double result_cycles = 0;
  for (const auto& r : results) result_cycles += r.engine_cycles;
  EXPECT_DOUBLE_EQ(cycles, result_cycles);
}

std::ptrdiff_t thread_count() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator{});
}

// At one worker the batch runs on the caller's thread: building the
// pipeline starts no thread (three workers start three), an injected
// stall delays run_batch itself, and the results and worker books match
// an unstalled run.
TEST(PipelineTest, OneWorkerSpawnsNoThread) {
  // A sanitizer runtime may start a helper thread of its own at the
  // process's first thread creation; count from after that.
  make_pipeline(2).reset();
  const std::ptrdiff_t before = thread_count();
  {
    auto three = make_pipeline(3);
    EXPECT_EQ(thread_count(), before + 3);
  }
  auto plain = make_pipeline(1);
  auto stalled = make_pipeline(1);
  EXPECT_EQ(thread_count(), before);
  ASSERT_EQ(stalled->num_workers(), 1u);

  constexpr std::chrono::milliseconds kStall{20};
  stalled->inject_worker_stall(
      0, std::chrono::nanoseconds(kStall).count());
  const auto jobs = outbound_jobs();
  const auto start = std::chrono::steady_clock::now();
  const auto slow = stalled->run_batch(jobs);
  EXPECT_GE(std::chrono::steady_clock::now() - start, kStall);
  const auto fast = plain->run_batch(jobs);

  ASSERT_EQ(slow.size(), fast.size());
  for (std::size_t i = 0; i < slow.size(); ++i) {
    EXPECT_TRUE(slow[i].accepted) << slow[i].drop_reason;
    EXPECT_EQ(slow[i].header, fast[i].header);
    EXPECT_EQ(slow[i].payload, fast[i].payload);
    EXPECT_EQ(slow[i].engine_cycles, fast[i].engine_cycles);
  }
  const WorkerStats& st = stalled->stats().at(0);
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.packets, jobs.size());
  EXPECT_EQ(st.engine_cycles, plain->stats().at(0).engine_cycles);
  EXPECT_GT(st.busy_ns, 0u);
}

TEST(PipelineTest, UnknownSaIsDroppedNotFatal) {
  auto p = make_pipeline(2);
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
std::vector<PipelineResult> sealed_stream(std::size_t workers,
                                          std::uint32_t victim,
                                          std::size_t remove_at) {
  auto p = make_pipeline(workers);
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
  for (const std::size_t workers : {1u, 3u}) {
    const auto kept = sealed_stream(workers, kVictim, kPacketsPerSa);
    const auto removed = sealed_stream(workers, kVictim, kRemoveAt);
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
      EXPECT_TRUE(removed[i].accepted) << "workers " << workers << " job " << i;
      EXPECT_EQ(removed[i].header, kept[i].header);
      EXPECT_EQ(removed[i].payload, kept[i].payload)
          << "workers " << workers << " job " << i;
    }
  }
}

TEST(PipelineTest, RemoveSaOfAnUnknownIdIsANoOp) {
  auto p = make_pipeline(2);
  p->remove_sa(999);
  EXPECT_EQ(p->sa_count(), kNumSas);
}

TEST(PipelineTest, CcmpRejectsTamperedAad) {
  // Flipping a header (AAD) bit after sealing must fail the CCM open.
  auto p = make_pipeline(1);
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

}  // namespace
}  // namespace mapsec::engine
