#include "mapsec/engine/offload_engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace mapsec::engine {

OffloadEngine::OffloadEngine(net::EventQueue& queue, std::size_t num_workers,
                             OffloadCosts costs,
                             std::uint64_t steal_timeout_ms,
                             std::size_t batch_width)
    : queue_(queue),
      costs_(costs),
      steal_timeout_ms_(steal_timeout_ms),
      batch_width_(std::max<std::size_t>(1, batch_width)) {
  if (num_workers == 0)
    throw std::invalid_argument("OffloadEngine: need at least one worker");
  lane_free_.assign(num_workers, 0);
  forming_.resize(num_workers);
  stall_ns_ = std::make_unique<std::atomic<std::uint64_t>[]>(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) stall_ns_[i] = 0;
  workers_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i)
    workers_.emplace_back([this, i] { worker_main(i); });
}

OffloadEngine::~OffloadEngine() {
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void OffloadEngine::submit(protocol::PkJob job, Completion done) {
  const net::SimTime now = queue_.now();

  // Lane assignment is part of the *model*: earliest-free lane, ties to
  // the lowest index — a pure function of the submission sequence, which
  // is what keeps the completion-event schedule deterministic. A forming
  // window leaves lane_free_ at its start instant, so the argmin keeps
  // feeding the same window until it fills.
  std::size_t lane = 0;
  for (std::size_t i = 1; i < lane_free_.size(); ++i)
    if (lane_free_[i] < lane_free_[lane]) lane = i;
  const net::SimTime start = std::max(now, lane_free_[lane]);

  stats_.submitted += 1;
  stats_.queue_wait_us += start - now;
  in_flight_ += 1;
  stats_.peak_depth = std::max(stats_.peak_depth, in_flight_);

  if (forming_[lane] == nullptr) {
    auto f = std::make_unique<Forming>();
    f->start = start;
    f->seq = ++forming_seq_;
    forming_[lane] = std::move(f);
    if (start > now) {
      // The lane is busy: hold the window open for late joiners until
      // the lane frees. The close event is a no-op if the window already
      // filled (seq mismatch after close_batch resets the slot).
      const std::uint64_t seq = forming_[lane]->seq;
      queue_.schedule_at(start, [this, lane, seq] {
        if (forming_[lane] != nullptr && forming_[lane]->seq == seq)
          close_batch(lane);
      });
    }
  }
  Forming& f = *forming_[lane];
  f.jobs.push_back(std::move(job));
  f.dones.push_back(std::move(done));
  // An idle lane starts its window immediately — batching only
  // materializes under queueing, so width 1 and an unloaded server both
  // reproduce the unbatched engine event-for-event.
  if (f.jobs.size() >= batch_width_ || f.start <= now) close_batch(lane);
}

void OffloadEngine::close_batch(std::size_t lane) {
  std::unique_ptr<Forming> f = std::move(forming_[lane]);
  const net::SimTime start = f->start;

  // Window price: the first job at full service cost, every extra job at
  // the modeled accelerator's marginal fraction.
  std::uint64_t cost = costs_.cost_us(f->jobs[0].kind);
  for (std::size_t j = 1; j < f->jobs.size(); ++j)
    cost += static_cast<std::uint64_t>(
        static_cast<double>(costs_.cost_us(f->jobs[j].kind)) *
            costs_.batch_marginal +
        0.5);
  const net::SimTime done_at = start + cost;
  lane_free_[lane] = done_at;

  stats_.lane_busy_us += cost;
  stats_.batches += 1;
  if (f->jobs.size() >= 2) stats_.batched_jobs += f->jobs.size();
  stats_.max_batch_fill = std::max(stats_.max_batch_fill, f->jobs.size());

  auto pending = std::make_shared<Pending>();
  pending->jobs = std::move(f->jobs);
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    work_q_.push_back(pending);
  }
  work_cv_.notify_one();

  queue_.schedule_at(
      done_at, [this, pending, dones = std::move(f->dones)]() {
        // The modeled accelerator is done; collect the wall-clock result.
        // A healthy worker finished long ago (or finishes within the
        // grace period). If it is stalled, steal the whole window: PkJobs
        // are pure functions, so recomputing the batch inline is
        // bit-identical and only costs wall-clock time.
        std::vector<protocol::PkResult> results;
        bool have = false;
        {
          std::unique_lock<std::mutex> lock(pending->mu);
          if (pending->cv.wait_for(
                  lock, std::chrono::milliseconds(steal_timeout_ms_),
                  [&] { return pending->ready; })) {
            results = pending->results;
            have = true;
          }
        }
        if (!have) {
          for (const protocol::PkJob& j : pending->jobs)
            results.push_back(protocol::run_pk_job(j, &steal_cache_));
          stats_.stolen += pending->jobs.size();
        }
        stats_.completed += results.size();
        in_flight_ -= results.size();
        // Per-job callbacks fire in submission order at the window's
        // single completion instant.
        for (std::size_t i = 0; i < results.size(); ++i) dones[i](results[i]);
      });
}

void OffloadEngine::inject_worker_stall(std::size_t index,
                                        std::uint64_t ns_per_job) {
  if (index < workers_.size())
    stall_ns_[index].store(ns_per_job, std::memory_order_relaxed);
}

void OffloadEngine::worker_main(std::size_t index) {
  crypto::MontCache cache;  // per-lane Montgomery contexts, R^2 paid once
  for (;;) {
    std::shared_ptr<Pending> pending;
    {
      std::unique_lock<std::mutex> lock(work_mu_);
      work_cv_.wait(lock, [&] { return stopping_ || !work_q_.empty(); });
      if (stopping_) return;
      pending = std::move(work_q_.front());
      work_q_.pop_front();
    }
    const std::uint64_t stall =
        stall_ns_[index].load(std::memory_order_relaxed);
    if (stall != 0)
      std::this_thread::sleep_for(std::chrono::nanoseconds(stall));
    std::vector<protocol::PkResult> results;
    results.reserve(pending->jobs.size());
    for (const protocol::PkJob& j : pending->jobs)
      results.push_back(protocol::run_pk_job(j, &cache));
    {
      std::lock_guard<std::mutex> lock(pending->mu);
      pending->results = std::move(results);
      pending->ready = true;
    }
    pending->cv.notify_all();
  }
}

}  // namespace mapsec::engine
