// Packet throughput of the pipeline on the ESP-inbound (3DES-CBC +
// HMAC-SHA1) and CCMP (AES-CCM) data paths, 256-packet batches over 8
// SAs. Reported items/sec are packets; bytes/sec count wire bytes. The
// unused /1 argument keeps the row names of earlier baselines, which
// also held /2 and /4 worker-pool rows.
//
// The inbound batches are reusable across benchmark iterations by
// resetting the anti-replay windows between runs (the only state a
// repeated batch disturbs).
#include <benchmark/benchmark.h>

#include "bench_main.hpp"
#include "mapsec/engine/packet_pipeline.hpp"

namespace {

using mapsec::crypto::Bytes;
using namespace mapsec::engine;

constexpr std::size_t kNumSas = 8;
constexpr std::size_t kPacketsPerSa = 32;
constexpr std::size_t kPayloadBytes = 512;

Bytes header_for(std::uint32_t spi, std::uint32_t seq) {
  Bytes h(8);
  mapsec::crypto::store_be32(h.data(), spi);
  mapsec::crypto::store_be32(h.data() + 4, seq);
  return h;
}

std::unique_ptr<PacketPipeline> make_pipeline(bool ccmp) {
  auto p = std::make_unique<PacketPipeline>(EngineProfile{}, 1, 0xBE);
  p->load_program("in", ccmp ? ccmp_inbound_program() : esp_inbound_program());
  p->load_program("out",
                  ccmp ? ccmp_outbound_program() : esp_outbound_program());
  mapsec::crypto::HmacDrbg keys(0x9999);
  for (std::uint32_t id = 0; id < kNumSas; ++id) {
    EngineSa sa;
    sa.spi = 0x2000 + id;
    sa.cipher = ccmp ? mapsec::protocol::BulkCipher::kAes128
                     : mapsec::protocol::BulkCipher::kDes3;
    sa.enc_key = keys.bytes(ccmp ? 16 : 24);
    sa.mac_key = keys.bytes(20);
    p->add_sa(id, sa);
  }
  return p;
}

/// Seal a batch outbound once, return it re-framed as inbound jobs.
std::vector<PipelineJob> make_inbound_batch(PacketPipeline& p) {
  std::vector<PipelineJob> out;
  for (std::size_t seq = 1; seq <= kPacketsPerSa; ++seq) {
    for (std::uint32_t id = 0; id < kNumSas; ++id) {
      PipelineJob j;
      j.sa_id = id;
      j.program = "out";
      j.packet = header_for(0x2000 + id, static_cast<std::uint32_t>(seq));
      const Bytes body(kPayloadBytes,
                       static_cast<std::uint8_t>(id * 31 + seq));
      j.packet.insert(j.packet.end(), body.begin(), body.end());
      out.push_back(std::move(j));
    }
  }
  const auto sealed = p.run_batch(out);
  std::vector<PipelineJob> in;
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    if (!sealed[i].accepted)
      throw std::runtime_error("outbound batch failed: " +
                               sealed[i].drop_reason);
    PipelineJob j;
    j.sa_id = out[i].sa_id;
    j.program = "in";
    j.packet = sealed[i].header;
    j.packet.insert(j.packet.end(), sealed[i].payload.begin(),
                    sealed[i].payload.end());
    in.push_back(std::move(j));
  }
  p.reset_replay();
  return in;
}

void run_inbound(benchmark::State& state, bool ccmp) {
  auto p = make_pipeline(ccmp);
  const auto batch = make_inbound_batch(*p);
  std::size_t wire_bytes = 0;
  for (const auto& j : batch) wire_bytes += j.packet.size();

  for (auto _ : state) {
    state.PauseTiming();
    p->reset_replay();
    state.ResumeTiming();
    const auto results = p->run_batch(batch);
    for (const auto& r : results)
      if (!r.accepted) state.SkipWithError("inbound packet dropped");
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire_bytes));
}

void BM_EspInboundPipeline(benchmark::State& state) {
  run_inbound(state, /*ccmp=*/false);
}
BENCHMARK(BM_EspInboundPipeline)->Arg(1)->UseRealTime();

void BM_CcmpInboundPipeline(benchmark::State& state) {
  run_inbound(state, /*ccmp=*/true);
}
BENCHMARK(BM_CcmpInboundPipeline)->Arg(1)->UseRealTime();

void BM_CcmpOutboundPipeline(benchmark::State& state) {
  auto p = make_pipeline(/*ccmp=*/true);
  std::vector<PipelineJob> batch;
  for (std::size_t seq = 1; seq <= kPacketsPerSa; ++seq) {
    for (std::uint32_t id = 0; id < kNumSas; ++id) {
      PipelineJob j;
      j.sa_id = id;
      j.program = "out";
      j.packet = header_for(0x2000 + id, static_cast<std::uint32_t>(seq));
      j.packet.resize(8 + kPayloadBytes, 0x5A);
      batch.push_back(std::move(j));
    }
  }
  std::size_t wire_bytes = 0;
  for (const auto& j : batch) wire_bytes += j.packet.size();

  for (auto _ : state) {
    const auto results = p->run_batch(batch);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire_bytes));
}
BENCHMARK(BM_CcmpOutboundPipeline)->Arg(1)->UseRealTime();

}  // namespace

MAPSEC_BENCHMARK_MAIN()
