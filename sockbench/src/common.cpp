#include "common.hpp"

#include <time.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace sockbench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"handshake_full", 1, false, 0},
      {"resume_mix", 8, true, 0},
      {"bulk_mixed", 1, false, 2},
  };
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double proc_status_mib(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  const std::size_t n = std::strlen(field);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, field, n) == 0 && line[n] == ':') {
      kib = std::strtod(line + n + 1, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace sockbench
