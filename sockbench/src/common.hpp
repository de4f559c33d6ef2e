// Shared pieces of the socket-tier benchmark: workload table, clocks and
// process probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "mapsec/protocol/suites.hpp"

namespace sockbench {

/// One traffic mix (why each exists: README.md). Every workload keeps
/// kSlots sessions in flight, closed loop, against a kShards-shard fleet.
struct Workload {
  std::string name;
  int sessions_per_txn = 1;  // 1 full handshake, then resumed sessions
  bool tickets = false;      // server ticket mode; even ids resume by ticket
  int bulk_slots = 0;        // slots running 3DES bulk transactions
};

constexpr int kSlots = 4;
constexpr std::size_t kShards = 2;
constexpr std::size_t kShortPayload = 64;
constexpr std::size_t kBulkPayload = 1024;
constexpr int kBulkPayloads = 16;
constexpr auto kShortSuite = mapsec::protocol::CipherSuite::kRsaAes128CbcSha;
constexpr auto kBulkSuite = mapsec::protocol::CipherSuite::kRsa3DesEdeCbcSha;

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Nanoseconds on the steady clock, the time base of every span.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread, in nanoseconds.
std::int64_t thread_cpu_ns();

/// A field of /proc/self/status in MiB (e.g. "VmRSS", "VmHWM"); 0 when
/// the field is missing.
double proc_status_mib(const char* field);

}  // namespace sockbench
