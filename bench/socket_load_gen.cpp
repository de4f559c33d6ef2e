// Multi-process socket load generator — the client half of E26.
//
// bench_server_load (the parent) hosts the SocketServerFleet and spawns
// one of these per client block; each process drives its block of
// SessionClients over real loopback TCP from its own reactor thread and
// reports the outcome as key=value lines on stdout. Seeds and shard
// routing derive from GLOBAL client ids, so the union of the children's
// fleets is exactly the sim LoadGenerator's fleet for the same seed —
// the parent concatenates the children's per-client digest blocks in
// process order and refolds the global fleet digest.
//
// Usage:
//   bench_socket_load_gen --probe
//       exit 0 if loopback TCP works here, 2 if not (visible CI SKIP)
//   bench_socket_load_gen --ports=P1,P2,.. --clients=N [--first=I]
//       [--seed=S] [--sessions=K] [--interarrival-us=U] [--budget-us=B]
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "mapsec/crypto/bytes.hpp"
#include "mapsec/server/socket_fleet.hpp"
#include "server_pki.hpp"

using namespace mapsec;

namespace {

std::vector<std::uint16_t> parse_ports(const std::string& csv) {
  std::vector<std::uint16_t> ports;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    ports.push_back(static_cast<std::uint16_t>(
        std::strtoul(csv.substr(pos, comma - pos).c_str(), nullptr, 10)));
    pos = comma + 1;
  }
  return ports;
}

}  // namespace

int main(int argc, char** argv) {
  server::SocketLoadConfig load;
  load.num_clients = 0;
  int sessions = 2;
  std::vector<std::uint16_t> ports;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg]() { return arg.substr(arg.find('=') + 1); };
    if (arg == "--probe") {
      return net::sockets_available() ? 0 : 2;
    } else if (arg.rfind("--ports=", 0) == 0) {
      ports = parse_ports(value());
    } else if (arg.rfind("--clients=", 0) == 0) {
      load.num_clients = std::strtoul(value().c_str(), nullptr, 10);
    } else if (arg.rfind("--first=", 0) == 0) {
      load.first_client_id = std::strtoul(value().c_str(), nullptr, 10);
    } else if (arg.rfind("--seed=", 0) == 0) {
      load.seed = std::strtoull(value().c_str(), nullptr, 0);
    } else if (arg.rfind("--sessions=", 0) == 0) {
      sessions = std::atoi(value().c_str());
    } else if (arg.rfind("--interarrival-us=", 0) == 0) {
      load.mean_interarrival_us =
          std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg.rfind("--budget-us=", 0) == 0) {
      load.wall_budget_us = std::strtoull(value().c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 1;
    }
  }
  if (ports.empty() || load.num_clients == 0) {
    std::fprintf(stderr,
                 "usage: bench_socket_load_gen --probe | "
                 "--ports=P1,P2 --clients=N [--first=I] [--seed=S] "
                 "[--sessions=K] [--interarrival-us=U] [--budget-us=B]\n");
    return 1;
  }
  if (!net::sockets_available()) {
    std::fprintf(stderr, "loopback TCP unavailable\n");
    return 2;
  }

  const bench::Pki pki = bench::Pki::make();
  server::ClientConfig client = bench::pki_client_config(pki);
  client.sessions = sessions;
  load.reserve_slabs = 4 * load.num_clients + 32;

  server::SocketClientFleet fleet(load, client,
                                  bench::pki_server_config(pki), ports);
  const server::SocketClientReport r = fleet.run();

  std::string digests;
  for (const crypto::Bytes& d : r.client_digests) digests += crypto::to_hex(d);
  std::printf("sessions_attempted=%zu\n", r.sessions_attempted);
  std::printf("sessions_completed=%zu\n", r.sessions_completed);
  std::printf("sessions_failed=%zu\n", r.sessions_failed);
  std::printf("echo_mismatches=%zu\n", r.echo_mismatches);
  std::printf("connection_attempts=%zu\n", r.connection_attempts);
  std::printf("bearer_errors=%" PRIu64 "\n", r.bearer_errors);
  std::printf("all_finished=%d\n", r.all_finished ? 1 : 0);
  std::printf("wall_s=%.6f\n", r.wall_s);
  std::printf("frames_sent=%" PRIu64 "\n", r.sockets.frames_sent);
  std::printf("frames_received=%" PRIu64 "\n", r.sockets.frames_received);
  std::printf("bytes_sent=%" PRIu64 "\n", r.sockets.bytes_sent);
  std::printf("bytes_received=%" PRIu64 "\n", r.sockets.bytes_received);
  std::printf("writev_calls=%" PRIu64 "\n", r.sockets.writev_calls);
  std::printf("readv_calls=%" PRIu64 "\n", r.sockets.readv_calls);
  std::printf("partial_writes=%" PRIu64 "\n", r.sockets.partial_writes);
  std::printf("arena_allocations=%" PRIu64 "\n", r.arena.allocations);
  std::printf("arena_reserved=%zu\n", r.arena.reserved);
  std::printf("arena_peak_in_use=%zu\n", r.arena.peak_in_use);
  std::printf("digests=%s\n", digests.c_str());
  return r.all_finished && r.echo_mismatches == 0 ? 0 : 1;
}
