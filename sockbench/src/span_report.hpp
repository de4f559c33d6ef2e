// Reading the traced run's span logs: per-layer aggregates and the
// trace file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "loadgen.hpp"
#include "traced_fleet.hpp"

namespace sockbench {

struct SpanSummary {
  // Inside the measured window (spans starting in [t0, t1]).
  double rx_self_us = 0;              // rx_handler minus nested tx/cache
  std::vector<double> rx_self_frame_us;  // one per inbound frame
  double tx_us = 0;
  std::uint64_t tx_frames = 0;
  std::vector<double> reply_wait_us;
  double lookup_us = 0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  // Whole run: time under any rx_handler, plus tx sends and cache calls
  // made outside one (the flush timer's echoes, link retransmits).
  double covered_us = 0;
};

SpanSummary summarize(const std::vector<std::vector<Span>>& shards,
                      std::int64_t t0_ns, std::int64_t t1_ns);

/// Write every span, one per line, as tab-separated text. Server spans
/// carry the client id of their transaction, joined through the n-th
/// connect / n-th accept order on each shard. Returns false on I/O error.
bool write_trace(const std::string& path,
                 const std::vector<std::vector<Span>>& shards,
                 const GenResult& gen);

}  // namespace sockbench
