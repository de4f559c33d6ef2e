#include "mapsec/engine/packet_pipeline.hpp"

#include <chrono>
#include <stdexcept>

#include "mapsec/crypto/dispatch.hpp"

namespace mapsec::engine {

std::string PacketPipeline::crypto_backend() {
  return crypto::dispatch::capabilities_summary();
}

PacketPipeline::PacketPipeline(EngineProfile profile, std::size_t num_workers,
                               std::uint64_t rng_seed)
    : engine_(profile, &engine_rng_),
      engine_rng_(rng_seed),
      rng_seed_(rng_seed),
      stats_(num_workers == 0 ? 1 : num_workers) {
  num_workers = stats_.size();
  stall_ns_ = std::make_unique<std::atomic<std::uint64_t>[]>(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) stall_ns_[i] = 0;
  if (num_workers == 1) return;  // run_batch runs on the caller's thread
  workers_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
}

void PacketPipeline::inject_worker_stall(std::size_t index,
                                         std::uint64_t ns_per_batch) {
  if (index < stats_.size())
    stall_ns_[index].store(ns_per_batch, std::memory_order_relaxed);
}

PacketPipeline::~PacketPipeline() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
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
  std::vector<PipelineResult> results(jobs.size());
  if (workers_.empty()) {  // one worker: the caller's thread is the worker
    run_share(0, jobs, results);
    return results;
  }
  {
    std::lock_guard lock(mu_);
    jobs_ = &jobs;
    results_ = &results;
    workers_remaining_ = workers_.size();
    ++epoch_;
  }
  work_cv_.notify_all();
  {
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, [this] { return workers_remaining_ == 0; });
    jobs_ = nullptr;
    results_ = nullptr;
  }
  return results;
}

void PacketPipeline::worker_main(std::size_t index) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const std::vector<PipelineJob>* jobs = nullptr;
    std::vector<PipelineResult>* results = nullptr;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait(lock, [&] { return stopping_ || epoch_ != seen_epoch; });
      if (stopping_) return;
      seen_epoch = epoch_;
      jobs = jobs_;
      results = results_;
    }
    run_share(index, *jobs, *results);
    {
      std::lock_guard lock(mu_);
      --workers_remaining_;
    }
    done_cv_.notify_one();
  }
}

void PacketPipeline::run_share(std::size_t index,
                               const std::vector<PipelineJob>& jobs,
                               std::vector<PipelineResult>& results) {
  // Injected stall (chaos campaigns): wall-clock latency only — the
  // batch finishes later, results stay byte-identical.
  const std::uint64_t stall = stall_ns_[index].load(std::memory_order_relaxed);
  if (stall > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(stall));

  // Walk the whole batch in order, claiming this worker's SAs. The scan
  // is what preserves per-SA arrival order; jobs for other workers cost
  // one modulo each. Claims gather into maximal same-program runs that
  // execute through the engine's batched path (run_many), which keeps
  // index order for rng draws and replay updates — results are
  // byte-identical to the per-job loop for any run boundaries.
  const auto start = std::chrono::steady_clock::now();
  WorkerStats& st = stats_[index];
  std::vector<std::size_t> run_idx;
  std::vector<EngineSa*> run_sas;
  std::vector<crypto::ConstBytes> run_pkts;
  std::vector<crypto::Rng*> run_rngs;
  const std::string* run_prog = nullptr;
  const auto flush = [&] {
    if (run_idx.empty()) return;
    std::vector<ProtocolEngine::Result> rs =
        engine_.run_many(*run_prog, run_sas, run_pkts, run_rngs);
    for (std::size_t k = 0; k < run_idx.size(); ++k) {
      PipelineResult& out = results[run_idx[k]];
      out.accepted = rs[k].accepted;
      out.header = std::move(rs[k].header);
      out.payload = std::move(rs[k].payload);
      out.drop_reason = std::move(rs[k].drop_reason);
      out.engine_cycles = rs[k].cycles;
      st.engine_cycles += rs[k].cycles;
      ++st.packets;
    }
    run_idx.clear();
    run_sas.clear();
    run_pkts.clear();
    run_rngs.clear();
    run_prog = nullptr;
  };
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const PipelineJob& job = jobs[i];
    if (job.sa_id % stats_.size() != index) continue;
    PipelineResult& out = results[i];
    const auto it = sas_.find(job.sa_id);
    if (it == sas_.end()) {
      out.drop_reason = "unknown SA";
      continue;
    }
    SaState& state = it->second;
    // Jobs the batched path cannot express keep the original per-job
    // exception containment: unknown programs (run_many faults the
    // whole run) and oversized packets (the CCM length check throws
    // per lane).
    if (!engine_.has_program(job.program) || job.packet.size() > 0xFFFF) {
      flush();
      try {
        auto r = engine_.run(job.program, state.sa, job.packet, state.rng);
        out.accepted = r.accepted;
        out.header = std::move(r.header);
        out.payload = std::move(r.payload);
        out.drop_reason = std::move(r.drop_reason);
        out.engine_cycles = r.cycles;
        st.engine_cycles += r.cycles;
      } catch (const std::exception& e) {
        out.drop_reason = e.what();
      }
      ++st.packets;
      continue;
    }
    if (run_prog != nullptr && *run_prog != job.program) flush();
    run_prog = &job.program;
    run_idx.push_back(i);
    run_sas.push_back(&state.sa);
    run_pkts.push_back(job.packet);
    run_rngs.push_back(&state.rng);
  }
  flush();
  ++st.batches;
  st.busy_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace mapsec::engine
