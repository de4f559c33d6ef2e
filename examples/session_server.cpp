// A secure-session server, end to end, on either bearer.
//
// Default mode walks the whole mapsec::server story on the simulated
// lossy bearer: a fleet of appliance clients arrives over a 5%-loss,
// reordering channel; each one completes a TLS handshake (resuming when
// it can), echoes application data through the AES-CCM bulk path, and
// closes gracefully — or gives up cleanly after its retry budget. The
// run ends by pricing the measured serving load against the paper's
// StrongARM SA-1100 appliance processor: Figure 3's gap, measured
// instead of asserted.
//
// `--listen [--shards N] [--seconds S]` instead serves the same stack
// over real loopback TCP (net::SocketBearer): it prints the listener
// ports and waits, so an external load generator can hammer it at
// wall-clock speed, e.g.
//
//   ./build/examples/session_server --listen --shards 2 &
//   ./build/bench/bench_socket_load_gen --ports=P1,P2 --clients=50
//
// (the example uses the shared bench PKI, so the load generator's
// clients trust its certificate chain by construction).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "mapsec/crypto/rng.hpp"
#include "mapsec/crypto/rsa.hpp"
#include "mapsec/platform/processor.hpp"
#include "mapsec/server/load_gen.hpp"
#include "mapsec/server/socket_fleet.hpp"
#include "server_pki.hpp"

using namespace mapsec;

namespace {

int run_listen(std::size_t shards, unsigned seconds) {
  if (!net::sockets_available()) {
    std::fprintf(stderr, "loopback TCP unavailable in this sandbox\n");
    return 2;
  }
  const bench::Pki pki = bench::Pki::make();
  server::SocketFleetConfig cfg;
  cfg.shards = shards;
  cfg.reserve_slabs_per_shard = 256;
  server::SocketServerFleet fleet(cfg, bench::pki_server_config(pki),
                                  {.capacity = 256, .ttl_us = 0});
  if (!fleet.ok()) {
    std::fprintf(stderr, "could not bind loopback listeners\n");
    return 1;
  }
  std::string csv;
  for (std::uint16_t port : fleet.ports()) {
    if (!csv.empty()) csv += ',';
    csv += std::to_string(port);
  }
  fleet.start();
  std::printf("listening on 127.0.0.1 ports %s (%zu shard%s, %u s)\n",
              csv.c_str(), shards, shards == 1 ? "" : "s", seconds);
  std::printf("drive it with: bench_socket_load_gen --ports=%s "
              "--clients=50\n", csv.c_str());
  std::fflush(stdout);
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  const server::SocketServerFleet::Report r = fleet.stop();
  std::printf("served %llu connections: %llu full + %llu resumed "
              "handshakes, %llu bulk echoes\n",
              static_cast<unsigned long long>(r.accepted),
              static_cast<unsigned long long>(r.server.full_handshakes),
              static_cast<unsigned long long>(r.server.resumed_handshakes),
              static_cast<unsigned long long>(r.server.bulk_messages));
  // The fleet's merged histogram: wall-clock microseconds from accept to
  // handshake completion on the server side.
  const analysis::LatencyHistogram& hs = r.server.handshake_latency;
  std::printf("server-side handshake p50 %.3f ms, p99 %.3f ms "
              "(%zu handshakes, merged over %zu shard%s)\n",
              hs.percentile(0.50) / 1e3, hs.percentile(0.99) / 1e3,
              hs.count(), r.shards.size(), r.shards.size() == 1 ? "" : "s");
  std::printf("books %s, arena %llu allocations for %zu reserved slabs "
              "(peak %zu in use)\n",
              r.conserved ? "conserved" : "NOT CONSERVED",
              static_cast<unsigned long long>(r.arena.allocations),
              r.arena.reserved, r.arena.peak_in_use);
  return r.conserved ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool listen = false;
  std::size_t shards = 2;
  unsigned seconds = 10;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--listen") == 0) {
      listen = true;
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: session_server [--listen [--shards N] "
                   "[--seconds S]]\n");
      return 1;
    }
  }
  if (listen) return run_listen(shards == 0 ? 1 : shards, seconds);

  constexpr std::uint64_t kNow = 1'050'000'000;  // ~2003

  // A tiny PKI: one root, one server identity (RSA-512 for demo speed).
  crypto::HmacDrbg pki_rng(0xDE50);
  crypto::RsaKeyPair ca_key = crypto::rsa_generate(pki_rng, 512);
  crypto::RsaKeyPair server_key = crypto::rsa_generate(pki_rng, 512);
  protocol::CertificateAuthority ca("DemoRoot", ca_key, 0, kNow * 2);
  const protocol::Certificate server_cert =
      ca.issue("shop.example", server_key.pub, 0, kNow * 2);

  server::ServerConfig server_cfg;
  server_cfg.handshake.now = kNow;
  server_cfg.handshake.cert_chain = {server_cert};
  server_cfg.handshake.private_key = &server_key.priv;

  server::ClientConfig client_cfg;
  client_cfg.handshake.now = kNow;
  client_cfg.handshake.trusted_roots = {ca.root()};
  client_cfg.sessions = 2;  // the second resumes through the cache

  server::LoadConfig load_cfg;
  load_cfg.num_clients = 25;
  load_cfg.channel.loss_rate = 0.05;
  load_cfg.channel.reorder_rate = 0.10;

  server::LoadGenerator gen(load_cfg, server_cfg, client_cfg,
                            {.capacity = 64, .ttl_us = 60'000'000});
  const server::LoadReport r = gen.run();

  std::printf("sessions: %zu completed, %zu failed (of %zu)\n",
              r.sessions_completed, r.sessions_failed,
              r.sessions_attempted);
  std::printf("handshakes: %llu full, %llu resumed (cache hit rate "
              "%.0f%%)\n",
              static_cast<unsigned long long>(r.server.full_handshakes),
              static_cast<unsigned long long>(r.server.resumed_handshakes),
              100 * r.cache_hit_rate);
  std::printf("handshake latency: p50 %.0f ms, p99 %.0f ms (sim)\n",
              r.handshake_p50_ms, r.handshake_p99_ms);
  std::printf("record layer: %.3f Mbit/s protected, %llu echoes, "
              "0x%02x%02x... fleet digest\n",
              r.record_mbps,
              static_cast<unsigned long long>(r.server.bulk_messages),
              r.fleet_digest[0], r.fleet_digest[1]);
  std::printf("\npriced against %s:\n",
              platform::Processor::strongarm_sa1100().name.c_str());
  std::printf("  required %.1f MIPS vs %.0f available -> gap ratio "
              "%.2f\n",
              r.gap.required_mips, r.gap.available_mips, r.gap.gap_ratio);
  std::printf("  %.1f mJ per session -> %.0f sessions per 26 KJ "
              "charge\n",
              r.gap.session_mj, r.gap.sessions_per_charge);
  return r.sessions_failed == 0 ? 0 : 1;
}
