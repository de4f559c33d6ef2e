// Multi-threaded packet pipeline over the protocol engine.
//
// Section 4.2.3's throughput argument, taken one level up: once the
// per-packet protocol path is programmable (ProtocolEngine) and the
// crypto inner loops are allocation-free, the remaining lever on a
// multi-core appliance is running independent flows in parallel. The
// pipeline shards packets across a persistent worker pool by security
// association: worker = sa_id % num_workers. At one worker there is no
// pool: run_batch runs the one share on the caller's thread, with no
// thread, lock or hand-off on the path. SA affinity gives two properties
// for free:
//
//   * per-SA packet order is preserved, so anti-replay windows and
//     sequence state evolve exactly as they would single-threaded;
//   * each SA's cached cipher/MAC contexts and its IV/nonce generator are
//     touched by exactly one thread — no locks on the data path.
//
// Consequently accept/drop decisions, output bytes and final replay state
// are identical for any worker count (tests/engine/pipeline_test.cpp
// asserts this), which is what makes the parallelism deployable in a
// security protocol: scaling out must not change the protocol's observable
// behaviour.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mapsec/engine/protocol_engine.hpp"

namespace mapsec::engine {

/// One packet's worth of work: which SA it belongs to, which program to
/// run, and the wire bytes.
struct PipelineJob {
  std::uint32_t sa_id = 0;
  std::string program;
  crypto::Bytes packet;
};

/// Outcome of one job, in the batch's original order.
struct PipelineResult {
  bool accepted = false;
  crypto::Bytes header;   // parsed header (on accept)
  crypto::Bytes payload;  // transformed payload (on accept)
  std::string drop_reason;
  double engine_cycles = 0;  // simulated cost from the engine's model
};

/// Per-worker counters (throughput accounting for the benchmark).
struct WorkerStats {
  std::uint64_t packets = 0;
  std::uint64_t batches = 0;
  double engine_cycles = 0;   // simulated engine cycles executed
  std::uint64_t busy_ns = 0;  // wall-clock time spent processing
};

class PacketPipeline {
 public:
  /// Spawns `num_workers` persistent threads when `num_workers` > 1; a
  /// one-worker (or zero, read as one) pipeline spawns none and runs each
  /// batch on the caller's thread. `rng_seed` roots the per-SA
  /// deterministic IV/nonce generators (seed ^ sa_id), so a pipeline's
  /// outputs depend on (seed, SAs, jobs) but not on the worker count.
  PacketPipeline(EngineProfile profile, std::size_t num_workers,
                 std::uint64_t rng_seed = 0x9A9A5EED);
  ~PacketPipeline();

  PacketPipeline(const PacketPipeline&) = delete;
  PacketPipeline& operator=(const PacketPipeline&) = delete;

  /// Register a program on the shared engine. Not safe concurrently with
  /// run_batch().
  void load_program(const std::string& name, Program program);

  /// Register an SA under `sa_id`. Not safe concurrently with run_batch().
  void add_sa(std::uint32_t sa_id, EngineSa sa);

  /// Drop the SA under `sa_id` (no-op if absent); later jobs on it come
  /// back unaccepted ("unknown SA"). Other SAs' state, and so their
  /// output, is untouched. Not safe concurrently with run_batch().
  void remove_sa(std::uint32_t sa_id);

  /// Registered SAs (tests check that retired connections release theirs).
  std::size_t sa_count() const { return sas_.size(); }

  /// Access a registered SA (e.g. to inspect replay state after a batch).
  const EngineSa& sa(std::uint32_t sa_id) const;

  /// Zero the replay windows of all registered SAs (benchmarks re-run the
  /// same inbound batch; live use never needs this).
  void reset_replay();

  /// Process a batch. Blocks until every job has completed; results are
  /// in job order. Each job is one ProtocolEngine::run() call; a job
  /// that throws (say, an unknown program) comes back unaccepted with
  /// the exception's message as its drop reason. Jobs for the same SA
  /// execute in batch order on the same worker.
  std::vector<PipelineResult> run_batch(const std::vector<PipelineJob>& jobs);

  std::size_t num_workers() const { return stats_.size(); }
  const std::vector<WorkerStats>& stats() const { return stats_; }

  /// Which crypto backend the workers' inner loops dispatch to (the
  /// crypto::dispatch capabilities summary, e.g. "aes=aesni sha1=sha-ni
  /// ..."). Identical for every worker — dispatch is process-global —
  /// and reported so throughput numbers carry their hardware context.
  static std::string crypto_backend();

  /// Chaos hook: make worker `index` sleep `ns_per_batch` wall-clock
  /// nanoseconds at the start of every batch (0 clears it; at one worker
  /// the sleep is on the caller's thread). A stalled worker slows the
  /// batch barrier down but MUST NOT change any result byte — the chaos
  /// soak asserts that. Safe to call while batches run (the value is
  /// atomic); out-of-range indices are ignored.
  void inject_worker_stall(std::size_t index, std::uint64_t ns_per_batch);

 private:
  struct SaState {
    EngineSa sa;
    crypto::HmacDrbg rng;
  };

  void worker_main(std::size_t index);
  /// Worker `index`'s share of a batch: its SAs' jobs, in batch order.
  /// Called by worker thread `index`, or by run_batch at one worker.
  void run_share(std::size_t index, const std::vector<PipelineJob>& jobs,
                 std::vector<PipelineResult>& results);

  ProtocolEngine engine_;
  crypto::HmacDrbg engine_rng_;  // only feeds the rng-less run() overload
  std::uint64_t rng_seed_;
  std::map<std::uint32_t, SaState> sas_;

  // Batch handoff state (multi-worker only), guarded by mu_. Workers
  // wake on a new epoch, process their share of the current batch, and
  // the last one out signals completion.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;
  bool stopping_ = false;
  std::size_t workers_remaining_ = 0;
  const std::vector<PipelineJob>* jobs_ = nullptr;
  std::vector<PipelineResult>* results_ = nullptr;

  std::vector<WorkerStats> stats_;  // one per worker: the worker count
  std::unique_ptr<std::atomic<std::uint64_t>[]> stall_ns_;  // per worker
  std::vector<std::thread> workers_;  // empty at one worker
};

}  // namespace mapsec::engine
