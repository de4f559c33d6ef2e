#include "mapsec/engine/packet_pipeline.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "mapsec/crypto/dispatch.hpp"

namespace mapsec::engine {

std::string PacketPipeline::crypto_backend() {
  return crypto::dispatch::capabilities_summary();
}

PacketPipeline::PacketPipeline(EngineProfile profile, std::size_t num_workers,
                               std::uint64_t rng_seed)
    : engine_(profile, &engine_rng_),
      engine_rng_(rng_seed),
      rng_seed_(rng_seed) {
  if (num_workers > 1)
    throw std::invalid_argument(
        "PacketPipeline: one worker only; scale out with the sharded tier "
        "(one pipeline per shard)");
}

void PacketPipeline::load_program(const std::string& name, Program program) {
  engine_.load_program(name, std::move(program));
}

void PacketPipeline::add_sa(std::uint32_t sa_id, EngineSa sa) {
  sas_.emplace(sa_id,
               SaState{std::move(sa), crypto::HmacDrbg(rng_seed_ ^ sa_id)});
}

void PacketPipeline::remove_sa(std::uint32_t sa_id) { sas_.erase(sa_id); }

const EngineSa& PacketPipeline::sa(std::uint32_t sa_id) const {
  const auto it = sas_.find(sa_id);
  if (it == sas_.end())
    throw std::invalid_argument("PacketPipeline: unknown SA");
  return it->second.sa;
}

void PacketPipeline::reset_replay() {
  for (auto& [id, state] : sas_) {
    state.sa.highest_seq = 0;
    state.sa.window = 0;
  }
}

std::vector<PipelineResult> PacketPipeline::run_batch(
    const std::vector<PipelineJob>& jobs) {
  // Injected stall (chaos campaigns): wall-clock latency only — the
  // batch finishes later, results stay byte-identical.
  if (stall_ns_ > 0)
    std::this_thread::sleep_for(std::chrono::nanoseconds(stall_ns_));

  std::vector<PipelineResult> results(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const PipelineJob& job = jobs[i];
    PipelineResult& out = results[i];
    const auto it = sas_.find(job.sa_id);
    if (it == sas_.end()) {
      out.drop_reason = "unknown SA";
      continue;
    }
    SaState& state = it->second;
    try {
      auto r = engine_.run(job.program, state.sa, job.packet, state.rng);
      out.accepted = r.accepted;
      out.header = std::move(r.header);
      out.payload = std::move(r.payload);
      out.drop_reason = std::move(r.drop_reason);
      out.engine_cycles = r.cycles;
    } catch (const std::exception& e) {
      out.drop_reason = e.what();
    }
  }
  return results;
}

}  // namespace mapsec::engine
