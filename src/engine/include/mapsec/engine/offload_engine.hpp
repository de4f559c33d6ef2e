// Asynchronous public-key offload engine — the paper's crypto accelerator
// as a service.
//
// Section 4's architectural remedy for the security processing gap is to
// move public-key math off the host CPU onto dedicated hardware. This
// module models that accelerator for the simulated server: a connection
// that reaches a private-key operation suspends its handshake
// (protocol::PkJob), submits the job here, and the completion posts back
// into the net::EventQueue at the accelerator's *modeled* finish time —
// the event loop never blocks on bignum math, so the record path keeps
// streaming through handshake bursts.
//
// Two clocks, one contract:
//
//   * SIMULATED time: the engine models `num_workers` accelerator lanes.
//     A job submitted at sim time T starts on the lane that frees
//     earliest (ties -> lowest lane), runs for the configured service
//     cost of its kind, and its completion event fires at exactly
//     start + cost. Lane choice and event ordering are pure functions of
//     the submission sequence, so a run's event schedule is
//     deterministic for a given worker count.
//   * WALL-CLOCK time: a real std::thread pool computes the results in
//     parallel with the event loop. The completion event *waits* for the
//     worker's result; if a worker stalls past `steal_timeout_ms` (chaos
//     injection, scheduler pathology), the event-loop thread steals the
//     job and recomputes it inline. PkJobs are pure functions, so the
//     stolen result is bit-identical and simulated behaviour is entirely
//     unaffected — graceful degradation instead of deadlock.
//
// Each worker thread owns a crypto::MontCache, so every lane pays the
// per-key Montgomery setup (R^2 mod n, n') once and reuses it across
// every handshake under the same server key.
//
// Batched data plane (batch_width > 1): when jobs queue up behind a busy
// lane, the lane drains up to `batch_width` of them in one service
// window. The model prices the window at
// cost(first) + batch_marginal * cost(rest); the worker (or the steal
// path) computes the window's jobs one by one through
// protocol::run_pk_job. So batching only changes *when* completions
// fire, never what they contain: an idle lane still dispatches a single
// job immediately (the window only fills under queueing), per-job
// callbacks run in submission order at the window's completion instant,
// and results are bit-identical to width 1 — the honest-fleet transcript
// digest does not move for any batch width.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "mapsec/crypto/mont_cache.hpp"
#include "mapsec/net/sim_clock.hpp"
#include "mapsec/protocol/handshake.hpp"

namespace mapsec::engine {

/// Modeled accelerator service time per job kind, in simulated
/// microseconds. Defaults approximate a mid-1990s crypto accelerator an
/// order of magnitude faster than the paper's host-side RSA figures.
struct OffloadCosts {
  std::uint64_t rsa_decrypt_us = 4'000;  // ClientKeyExchange premaster
  std::uint64_t rsa_sign_us = 4'000;     // DHE ServerKeyExchange signature
  std::uint64_t rsa_verify_us = 400;     // CertificateVerify (public op)

  /// Marginal service-time fraction of each job drained into a lane's
  /// window after the first: a batch of k jobs costs
  /// cost(j0) + batch_marginal * (cost(j1) + ... + cost(j{k-1})). The
  /// sub-unit factor prices the modeled accelerator's window (a datapath
  /// that overlaps independent exponentiations), in simulated time only;
  /// no host kernel is timed, and the host computes the jobs in turn.
  double batch_marginal = 0.3;

  std::uint64_t cost_us(protocol::PkJob::Kind kind) const {
    switch (kind) {
      case protocol::PkJob::Kind::kRsaDecrypt: return rsa_decrypt_us;
      case protocol::PkJob::Kind::kRsaSign: return rsa_sign_us;
      case protocol::PkJob::Kind::kRsaVerify: return rsa_verify_us;
    }
    return rsa_decrypt_us;
  }
};

/// Accounting, updated only from the event-loop thread.
struct OffloadStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t stolen = 0;  // recomputed inline after a wall-clock stall
  std::size_t peak_depth = 0;         // max jobs in flight simultaneously
  std::uint64_t queue_wait_us = 0;    // modeled wait for a free lane, total
  std::uint64_t lane_busy_us = 0;     // modeled lane service time, total
  std::uint64_t batches = 0;          // lane service windows dispatched
  std::uint64_t batched_jobs = 0;     // jobs that shared a window (fill >= 2)
  std::size_t max_batch_fill = 0;     // largest window fill observed
};

class OffloadEngine {
 public:
  using Completion = std::function<void(const protocol::PkResult&)>;

  /// Spawns `num_workers` wall-clock worker threads modeling the same
  /// number of accelerator lanes. All submit()/event activity must come
  /// from the single thread driving `queue`. `batch_width` (clamped to
  /// >= 1) caps how many queued jobs one lane drains per service window;
  /// width 1 reproduces the unbatched engine event-for-event.
  OffloadEngine(net::EventQueue& queue, std::size_t num_workers,
                OffloadCosts costs = {}, std::uint64_t steal_timeout_ms = 250,
                std::size_t batch_width = 1);
  ~OffloadEngine();

  OffloadEngine(const OffloadEngine&) = delete;
  OffloadEngine& operator=(const OffloadEngine&) = delete;

  /// Submit a job at the current simulated time. `done` fires as an
  /// EventQueue event at the modeled completion instant (never inline).
  void submit(protocol::PkJob job, Completion done);

  std::size_t num_workers() const { return workers_.size(); }
  std::size_t batch_width() const { return batch_width_; }
  std::size_t in_flight() const { return in_flight_; }
  const OffloadStats& stats() const { return stats_; }

  /// Chaos hook: park worker `index` for `ns_per_job` wall-clock
  /// nanoseconds before each job it picks up (0 clears). Safe to call
  /// from any thread; out-of-range indices are ignored. A parked worker
  /// only ever delays wall-clock completion — the steal path keeps
  /// simulated results and ordering bit-identical.
  void inject_worker_stall(std::size_t index, std::uint64_t ns_per_job);

 private:
  /// One dispatched lane window (1..batch_width jobs) — the unit of work
  /// shared between the event loop and the pool. A worker runs the
  /// window's jobs in order through its lane's MontCache.
  struct Pending {
    std::vector<protocol::PkJob> jobs;
    std::mutex mu;
    std::condition_variable cv;
    bool ready = false;                        // guarded by mu
    std::vector<protocol::PkResult> results;   // guarded by mu
  };

  /// A lane's open window: jobs that joined the queue while the lane is
  /// busy, waiting either for the lane to free (the close event at
  /// `start`) or for the window to fill to batch_width. Only exists
  /// while the lane is busy — an idle lane dispatches immediately.
  struct Forming {
    net::SimTime start = 0;      // == lane_free_[lane] while forming
    std::uint64_t seq = 0;       // guards the close event against reuse
    std::vector<protocol::PkJob> jobs;
    std::vector<Completion> dones;  // parallel to jobs, submission order
  };

  void close_batch(std::size_t lane);
  void worker_main(std::size_t index);

  net::EventQueue& queue_;
  OffloadCosts costs_;
  std::uint64_t steal_timeout_ms_;
  std::size_t batch_width_;
  std::vector<net::SimTime> lane_free_;  // modeled lanes
  std::vector<std::unique_ptr<Forming>> forming_;  // open window per lane
  std::uint64_t forming_seq_ = 0;
  OffloadStats stats_;
  std::size_t in_flight_ = 0;
  crypto::MontCache steal_cache_;  // event-loop thread only

  std::mutex work_mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Pending>> work_q_;
  bool stopping_ = false;
  std::unique_ptr<std::atomic<std::uint64_t>[]> stall_ns_;  // per worker
  std::vector<std::thread> workers_;
};

}  // namespace mapsec::engine
