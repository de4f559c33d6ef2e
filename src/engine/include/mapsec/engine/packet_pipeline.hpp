// Packet pipeline over the protocol engine.
//
// Section 4.2.3's protocol engine, fed in batches: a server collects the
// record-layer jobs one event-loop instant produced and hands them to
// run_batch, which runs each through ProtocolEngine::run on the caller's
// thread, in batch order. The pipeline owns the security associations
// and, per SA, a deterministic IV/nonce generator (seed ^ sa_id), so a
// batch's outputs depend on (seed, SAs, jobs) and nothing else.
//
// There is no thread pool: parallelism on a multi-core appliance comes
// from the sharded tier (server::ShardedServer), one thread per shard,
// each shard with its own pipeline. A pool inside one event loop never
// paid for itself: a serving batch holds one or two packets, and waking
// workers for it cost more than running it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
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

class PacketPipeline {
 public:
  /// `num_workers` must be 0 or 1; any other value throws
  /// std::invalid_argument (scale out with the sharded tier instead). It
  /// is kept only because the repository benchmark's calibration passes
  /// it: a benchmark change drops that read, then deletes this parameter
  /// and ServerConfig::pipeline_workers. `rng_seed` roots the per-SA
  /// deterministic IV/nonce generators (seed ^ sa_id).
  PacketPipeline(EngineProfile profile, std::size_t num_workers,
                 std::uint64_t rng_seed = 0x9A9A5EED);

  PacketPipeline(const PacketPipeline&) = delete;
  PacketPipeline& operator=(const PacketPipeline&) = delete;

  /// Register a program on the engine.
  void load_program(const std::string& name, Program program);

  /// Register an SA under `sa_id`.
  void add_sa(std::uint32_t sa_id, EngineSa sa);

  /// Drop the SA under `sa_id` (no-op if absent); later jobs on it come
  /// back unaccepted ("unknown SA"). Other SAs' state, and so their
  /// output, is untouched.
  void remove_sa(std::uint32_t sa_id);

  /// Registered SAs (tests check that retired connections release theirs).
  std::size_t sa_count() const { return sas_.size(); }

  /// Access a registered SA (e.g. to inspect replay state after a batch).
  const EngineSa& sa(std::uint32_t sa_id) const;

  /// Zero the replay windows of all registered SAs (benchmarks re-run the
  /// same inbound batch; live use never needs this).
  void reset_replay();

  /// Process a batch on the caller's thread; results are in job order.
  /// Each job is one ProtocolEngine::run() call; a job that throws (say,
  /// an unknown program) comes back unaccepted with the exception's
  /// message as its drop reason, and the rest of the batch runs on.
  std::vector<PipelineResult> run_batch(const std::vector<PipelineJob>& jobs);

  /// Which crypto backend the engine's inner loops dispatch to (the
  /// crypto::dispatch capabilities summary, e.g. "aes=aesni sha1=sha-ni
  /// ..."), reported so throughput numbers carry their hardware context.
  static std::string crypto_backend();

  /// Chaos hook: sleep `ns_per_batch` wall-clock nanoseconds at the start
  /// of every batch (0 clears it). A stall delays run_batch but MUST NOT
  /// change any result byte — the chaos soak asserts that.
  void inject_stall(std::uint64_t ns_per_batch) { stall_ns_ = ns_per_batch; }

 private:
  struct SaState {
    EngineSa sa;
    crypto::HmacDrbg rng;
  };

  ProtocolEngine engine_;
  crypto::HmacDrbg engine_rng_;  // only feeds the rng-less run() overload
  std::uint64_t rng_seed_;
  std::map<std::uint32_t, SaState> sas_;
  std::uint64_t stall_ns_ = 0;
};

}  // namespace mapsec::engine
