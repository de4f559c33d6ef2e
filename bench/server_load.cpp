// Experiment E18 — secure-session serving rates under load.
//
// Drives the mapsec::server stack with seeded client fleets over lossy
// simulated bearers and reports the rates the paper's Figure 3 argument
// is about: handshakes/sec, protected record-layer throughput — then
// prices the measured load against an appliance-class processor via
// platform::serving_gap, both as-is and with the crypto::dispatch ISA
// tier applied (E19's gap-ratio improvement). A worker sweep re-runs the
// bulk-heavy scenario across PacketPipeline worker counts and checks the
// fleet transcript digest is bit-identical.
//
// E21 rides on the same binary: a public-key offload sweep re-runs the
// full-handshake fleet with the server's RSA ops on modeled accelerator
// lanes (engine::OffloadEngine, 1/2/4 lanes vs inline), asserting the
// fleet digest stays byte-identical for any lane count while the
// full-handshake rate scales with lanes; plus a session-cache index
// micro-benchmark (hashed vs ordered tree at 10k entries).
//
// E23 rides along too: a cache-vs-stateless-ticket pairing — identical
// fleets resuming through the bounded cache vs encrypted session tickets
// with the cache disabled — gating that the ticket path serves the same
// throughput (±10%) with a byte-identical fleet digest while server
// resumption state drops from O(cached users) to O(key ring).
//
// Metric provenance: every per-second rate is reported INSIDE its
// scenario block. Rates from different scenarios are not comparable —
// each scenario has its own offered load and sim duration, so an earlier
// revision's top-level "full 608/s vs resumed 88/s" pairing read as
// "resumption is slower" when it only meant scenario 2 offered fewer
// handshakes per second. The apples-to-apples cost comparison is the
// full-vs-resumed handshake latency split within ONE run.
//
// E24 rides along as well: a sharded serving-tier sweep re-runs a
// core-bound fleet (the modeled host core prices session processing in
// simulated microseconds) across 1/2/4/8 shards — independent event
// loops on real threads joined by the epoch-barrier merge — gating a
// >= 3x aggregate handshake-rate gain from 1 to 4 shards with a
// byte-identical fleet digest at every count, plus a 10k-concurrent
// lingering-session soak on 8 shards.
//
// E25 closes the file: availability SLOs for supervised shard failure.
// A 150-client x 4-session ticket-mode fleet on 4 shards loses one shard
// to a hard crash mid-flood; the supervisor kills the world, remaps the
// victims by rendezvous hashing and rejoins the shard warm. Gates: ZERO
// honest sessions lost, every failover reconnect resumes by ticket (no
// pk op for the survivor), p99 client blackout under budget, and the
// crashed run's fleet digest byte-identical to both a rerun AND the
// undisturbed run. The crash's energy bill is priced two ways through
// platform::serving_gap_failover — as ticket resumptions vs the
// full-RSA counterfactual — which is the battery argument for stateless
// failover at appliance scale.
//
// E26 closes the file at wall-clock speed: the real-socket bearer. A
// 2-shard SocketServerFleet listens on loopback TCP while two
// bench_socket_load_gen child processes drive the same seeded client
// fleet the sim reference ran — same seeds, same arrival stream, same
// shard routing — over real sockets. Gates: session outcomes (handshake
// mix, completion counts, echoes, refolded fleet digest, conservation
// books) byte-identical to the sim run, and the pooled record path
// allocating nothing past its pre-reserve. Wall-clock handshakes/s and
// record-Mbit/s are reported as informational (_wall-suffixed) rates
// next to the sim-modeled ones. Skipped visibly when the sandbox has no
// loopback TCP.
//
// Usage: bench_server_load [json-output-path]
//   Writes BENCH_server.json (default: ./BENCH_server.json).
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_guard.hpp"
#include "server_pki.hpp"
#include "mapsec/analysis/csv.hpp"
#include "mapsec/analysis/table.hpp"
#include "mapsec/chaos/campaign.hpp"
#include "mapsec/crypto/rng.hpp"
#include "mapsec/crypto/rsa.hpp"
#include "mapsec/platform/processor.hpp"
#include "mapsec/server/load_gen.hpp"
#include "mapsec/server/sharded_server.hpp"
#include "mapsec/server/socket_fleet.hpp"

using namespace mapsec;

namespace {

using bench::Pki;

server::ServerConfig server_config(const Pki& pki) {
  return bench::pki_server_config(pki);
}

server::ClientConfig client_config(const Pki& pki) {
  return bench::pki_client_config(pki);
}

server::LoadConfig load_config(std::size_t clients) {
  server::LoadConfig cfg;
  cfg.num_clients = clients;
  cfg.channel.loss_rate = 0.02;
  cfg.channel.reorder_rate = 0.05;
  cfg.appliance = platform::Processor::strongarm_sa1100();
  return cfg;
}

struct Timed {
  server::LoadReport report;
  double wall_ms = 0;
};

Timed run(server::LoadGenerator gen) {
  const auto t0 = std::chrono::steady_clock::now();
  Timed out{gen.run(), 0};
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return out;
}

std::string hex_prefix(const crypto::Bytes& digest, std::size_t n = 8) {
  std::string s;
  char buf[3];
  for (std::size_t i = 0; i < n && i < digest.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%02x", digest[i]);
    s += buf;
  }
  return s;
}

platform::ServedLoad served_load(const server::LoadReport& r) {
  platform::ServedLoad served;
  served.full_handshakes_per_s = r.full_handshakes_per_s;
  served.resumed_handshakes_per_s = r.resumed_handshakes_per_s;
  served.bulk_mbps = r.record_mbps;
  served.sessions_per_s = r.sessions_per_s;
  served.avg_session_kb =
      r.sessions_completed > 0
          ? (static_cast<double>(r.server.bytes_opened +
                                 r.server.bytes_sealed) /
             1024.0 / static_cast<double>(r.sessions_completed))
          : 0;
  return served;
}

/// Re-price one report's served load with the ISA-dispatch tier applied
/// (the accelerated appliance variant of E19).
platform::ServingGapReport accelerated_gap(const server::LoadReport& r,
                                           const platform::Processor& proc) {
  return platform::serving_gap(platform::WorkloadModel::paper_calibrated(),
                               platform::AccelProfile::isa_dispatch(), proc,
                               served_load(r));
}

void print_scenario(const char* name, const Timed& t,
                    const platform::ServingGapReport& accel) {
  const server::LoadReport& r = t.report;
  analysis::Table tab({"metric", "value"});
  tab.add_row({"sessions completed / attempted",
               std::to_string(r.sessions_completed) + " / " +
                   std::to_string(r.sessions_attempted)});
  tab.add_row({"handshakes/s served (full + resumed, sim)",
               analysis::fmt(r.full_handshakes_per_s, 1) + " + " +
                   analysis::fmt(r.resumed_handshakes_per_s, 1)});
  tab.add_row({"record throughput (Mbit/s sim)",
               analysis::fmt(r.record_mbps, 3)});
  tab.add_row({"full handshake p50 / p99 (ms sim)",
               analysis::fmt(r.full_handshake_p50_ms, 1) + " / " +
                   analysis::fmt(r.full_handshake_p99_ms, 1)});
  if (r.server.resumed_handshakes > 0) {
    tab.add_row({"resumed handshake p50 / p99 (ms sim)",
                 analysis::fmt(r.resumed_handshake_p50_ms, 1) + " / " +
                     analysis::fmt(r.resumed_handshake_p99_ms, 1)});
    if (r.resumed_handshake_p50_ms > 0) {
      tab.add_row({"resumption latency advantage (p50)",
                   analysis::fmt(r.full_handshake_p50_ms /
                                     r.resumed_handshake_p50_ms,
                                 2) +
                       "x"});
    }
  }
  tab.add_row({"cache hit rate", analysis::fmt(r.cache_hit_rate, 3)});
  tab.add_row({"required MIPS (StrongARM has " +
                   analysis::fmt(r.gap.available_mips, 0) + ")",
               analysis::fmt(r.gap.required_mips, 1)});
  tab.add_row({"gap ratio (software)", analysis::fmt(r.gap.gap_ratio, 2)});
  tab.add_row({"gap ratio (ISA dispatch)",
               analysis::fmt(accel.gap_ratio, 2)});
  tab.add_row({"sessions per 26 KJ charge",
               analysis::fmt(r.gap.sessions_per_charge, 0) + " sw / " +
                   analysis::fmt(accel.sessions_per_charge, 0) + " accel"});
  tab.add_row({"wall clock (ms)", analysis::fmt(t.wall_ms, 0)});
  std::printf("\n-- %s --\n%s", name, tab.render().c_str());
}

/// One scenario's JSON block: rates stay inside the scenario they were
/// measured in.
void write_scenario_json(FILE* f, const char* key, const Timed& t,
                         const platform::ServingGapReport& accel,
                         bool trailing_comma) {
  const server::LoadReport& r = t.report;
  std::fprintf(
      f,
      "    \"%s\": {\n"
      "      \"full_handshakes_per_s\": %.3f,\n"
      "      \"resumed_handshakes_per_s\": %.3f,\n"
      "      \"record_mbps\": %.3f,\n"
      "      \"full_handshake_p50_ms\": %.3f,\n"
      "      \"full_handshake_p99_ms\": %.3f,\n"
      "      \"resumed_handshake_p50_ms\": %.3f,\n"
      "      \"resumed_handshake_p99_ms\": %.3f,\n"
      "      \"cache_hit_rate\": %.4f,\n"
      "      \"gap_ratio\": %.3f,\n"
      "      \"gap_ratio_isa_dispatch\": %.3f,\n"
      "      \"sessions_per_charge\": %.1f,\n"
      "      \"sessions_per_charge_isa_dispatch\": %.1f\n"
      "    }%s\n",
      key, r.full_handshakes_per_s, r.resumed_handshakes_per_s,
      r.record_mbps, r.full_handshake_p50_ms, r.full_handshake_p99_ms,
      r.resumed_handshake_p50_ms, r.resumed_handshake_p99_ms,
      r.cache_hit_rate, r.gap.gap_ratio, accel.gap_ratio,
      r.gap.sessions_per_charge, accel.sessions_per_charge,
      trailing_comma ? "," : "");
}

// ---- scenario 4: handshake flood (Section 3.3 battery-exhaustion DoS) --

/// One chaos campaign: the scenario-1 honest fleet plus a 200-connection
/// full-handshake flood that drives each probe through the
/// ClientKeyExchange, so every admitted attack connection costs the
/// server an RSA private operation. `defended` toggles the admission
/// valve and the degraded (resumption-only) watermarks; undefended is
/// the pre-hardening server that performs every handshake it is offered.
chaos::CampaignConfig flood_campaign(const Pki& pki, bool defended,
                                     bool flood) {
  chaos::CampaignConfig cfg;
  cfg.seed = 0xF100D;
  cfg.honest_clients = 12;
  cfg.mean_interarrival_us = 3'000;
  cfg.server = server_config(pki);
  cfg.client = client_config(pki);
  cfg.client.retry_budget = 8;
  cfg.client.retry_backoff_us = 100'000;
  cfg.client.max_retry_backoff_us = 1'000'000;
  cfg.cache.capacity = 256;
  cfg.cache.ttl_us = 0;
  if (defended) {
    cfg.server.max_handshake_queue = 8;
    cfg.server.degraded_high_watermark = 5;
    cfg.server.degraded_low_watermark = 2;
  }
  // Flood concurrency == attacker count (each attacker walks its
  // connections sequentially), so 40 attackers keep ~40 handshakes in
  // flight — far past the defended server's 8-deep admission queue.
  if (flood)
    cfg.faults.push_back(chaos::HandshakeFlood{
        .at_us = 5'000,
        .attackers = 40,
        .connections_each = 5,
        .interarrival_us = 1'000,
        .reach_key_exchange = true,
    });
  return cfg;
}

struct FloodOutcome {
  chaos::CampaignReport report;
  /// Handshake energy beyond the flood-free baseline run — the bill the
  /// attacker ran up, priced per byte the attacker had to transmit.
  double attack_energy_mj = 0;
  double attack_mj_per_byte = 0;
  double degraded_time_share = 0;
};

FloodOutcome run_flood(const chaos::CampaignConfig& cfg,
                       double baseline_energy_mj) {
  FloodOutcome out;
  out.report = chaos::CampaignRunner(cfg).run();
  out.attack_energy_mj =
      std::max(0.0, out.report.handshake_energy_mj - baseline_energy_mj);
  if (out.report.attack_bytes > 0)
    out.attack_mj_per_byte =
        out.attack_energy_mj / static_cast<double>(out.report.attack_bytes);
  if (out.report.sim_duration_s > 0)
    out.degraded_time_share = out.report.degraded_time_us /
                              (out.report.sim_duration_s * 1e6);
  return out;
}

// ---- scenario 10 (E26): real-socket bearer at wall-clock speed ---------

/// Parsed key=value output of one bench_socket_load_gen child process.
struct ChildOutcome {
  std::map<std::string, std::string> kv;
  bool ok = false;

  std::uint64_t num(const char* key) const {
    auto it = kv.find(key);
    return it == kv.end() ? 0
                          : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  double real(const char* key) const {
    auto it = kv.find(key);
    return it == kv.end() ? 0.0 : std::atof(it->second.c_str());
  }
};

/// Directory holding this binary — bench_socket_load_gen lives next to
/// it in the build tree.
std::string self_dir() {
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  std::string path(buf);
  std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash);
}

/// Drain one child's stdout into key=value pairs; ok iff it exited 0.
ChildOutcome read_child(FILE* pipe) {
  ChildOutcome out;
  if (!pipe) return out;
  char line[16384];
  while (std::fgets(line, sizeof line, pipe)) {
    std::string s(line);
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r'))
      s.pop_back();
    std::size_t eq = s.find('=');
    if (eq != std::string::npos) out.kv[s.substr(0, eq)] = s.substr(eq + 1);
  }
  out.ok = pclose(pipe) == 0;
  return out;
}

/// Decode the children's concatenated per-client digest hex back into
/// 32-byte lanes (process order = global client order).
std::vector<crypto::Bytes> decode_digests(const std::string& hex) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  std::vector<crypto::Bytes> lanes;
  for (std::size_t i = 0; i + 64 <= hex.size(); i += 64) {
    crypto::Bytes d(32);
    for (std::size_t j = 0; j < 32; ++j) {
      int hi = nibble(hex[i + 2 * j]), lo = nibble(hex[i + 2 * j + 1]);
      if (hi < 0 || lo < 0) return {};
      d[j] = static_cast<std::uint8_t>((hi << 4) | lo);
    }
    lanes.push_back(std::move(d));
  }
  return lanes;
}

/// Everything the E26 gates and JSON block need to survive scope exit.
struct SocketWallclock {
  bool skipped = true;
  bool outcome_equal = false;
  bool digest_match = false;
  bool conserved = false;
  bool zero_alloc = false;
  bool children_ok = false;
  std::size_t echo_mismatches = 0;
  std::uint64_t bearer_errors = 0;
  std::uint64_t accepted = 0;
  double wall_s = 0;
  double full_per_s_wall = 0;
  double resumed_per_s_wall = 0;
  double record_mbps_wall = 0;
  double wall_over_modeled_full = 0;
  double wall_over_modeled_record = 0;

  bool ok() const {
    return skipped || (outcome_equal && digest_match && conserved &&
                       zero_alloc && children_ok && echo_mismatches == 0);
  }
};

}  // namespace

int main(int argc, char** argv) {
  mapsec::bench::release_guard();
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_server.json";
  const Pki pki = Pki::make();

  std::puts("E18: secure-session serving rates (simulated bearers, "
            "RSA-512 identities,\n2% loss / 5% reorder, StrongARM "
            "SA-1100 pricing)");
  std::printf("crypto dispatch: %s\n",
              engine::PacketPipeline::crypto_backend().c_str());

  // Scenario 1: every session pays the full RSA handshake.
  server::ClientConfig full_client = client_config(pki);
  full_client.sessions = 1;
  const Timed full = run(server::LoadGenerator(
      load_config(200), server_config(pki), full_client, {}));
  const platform::ServingGapReport full_accel =
      accelerated_gap(full.report, platform::Processor::strongarm_sa1100());
  print_scenario("full handshakes (200 clients x 1 session)", full,
                 full_accel);

  // Scenario 2: three of four sessions resume through the bounded cache.
  // The full-vs-resumed comparison lives HERE, inside one run: both
  // handshake kinds face the same arrival process and channel.
  server::ClientConfig resumed_client = client_config(pki);
  resumed_client.sessions = 4;
  const Timed resumed = run(server::LoadGenerator(
      load_config(150), server_config(pki), resumed_client, {}));
  const platform::ServingGapReport resumed_accel = accelerated_gap(
      resumed.report, platform::Processor::strongarm_sa1100());
  print_scenario("resumption-heavy (150 clients x 4 sessions)", resumed,
                 resumed_accel);

  // Scenario 3: bulk-heavy worker sweep — the record path shards through
  // the PacketPipeline by connection; the transcript digest must not
  // depend on the worker count.
  std::puts("\n-- record path vs PacketPipeline workers (100 clients x "
            "8 x 512 B) --");
  analysis::Table sweep({"workers", "record Mbit/s (sim)", "wall ms",
                         "fleet digest"});
  std::vector<std::vector<std::string>> sweep_csv;
  double bulk_mbps = 0;
  std::string digest0;
  bool digests_match = true;
  for (std::size_t workers : {1u, 2u, 4u}) {
    server::ClientConfig bulk_client = client_config(pki);
    bulk_client.payloads_per_session = 8;
    bulk_client.payload_bytes = 512;
    server::ServerConfig bulk_server = server_config(pki);
    bulk_server.pipeline_workers = workers;
    const Timed t = run(server::LoadGenerator(
        load_config(100), bulk_server, bulk_client, {}));
    const std::string digest = hex_prefix(t.report.fleet_digest);
    if (digest0.empty()) digest0 = digest;
    digests_match = digests_match && digest == digest0;
    bulk_mbps = t.report.record_mbps;
    sweep.add_row({std::to_string(workers),
                   analysis::fmt(t.report.record_mbps, 3),
                   analysis::fmt(t.wall_ms, 0), digest});
    sweep_csv.push_back({std::to_string(workers),
                         analysis::fmt(t.report.record_mbps, 3), digest});
  }
  std::fputs(sweep.render().c_str(), stdout);
  std::printf("digests %s across worker counts\n",
              digests_match ? "IDENTICAL" : "DIVERGED");
  std::printf("\nCSV:\n%s",
              analysis::to_csv({"workers", "record_mbps", "fleet_digest"},
                               sweep_csv)
                  .c_str());

  // Scenario 5 (E21): public-key offload sweep. The same full-handshake
  // fleet with the server's RSA private ops on modeled accelerator lanes
  // (4 ms/op, the OffloadCosts default): handshakes suspend at each
  // private-key op and resume via EventQueue completion events, so the
  // event loop never blocks on bignum math. Loss-free bearers so every
  // session completes even at 1-lane saturation; the fleet digest must
  // then be byte-identical for ANY lane count — and for inline mode —
  // per the offload determinism contract.
  std::puts("\n-- E21: public-key offload (200 clients x 1 full handshake, "
            "loss-free bearer,\n   modeled RSA lane = 4 ms/op) --");
  struct OffRow {
    std::size_t workers = 0;
    double hs_per_s = 0;
    double mbps = 0;
    double lane_util = 0;
  };
  analysis::Table off_tab({"lanes", "full hs/s (sim)", "record Mbit/s",
                           "lane util", "peak depth", "wall ms",
                           "fleet digest"});
  std::vector<OffRow> off_rows;
  std::string off_digest0;
  bool off_digests_match = true;
  for (std::size_t workers : {0u, 1u, 2u, 4u}) {
    server::LoadConfig off_load = load_config(200);
    off_load.channel = {};  // loss-free
    server::ClientConfig off_client = client_config(pki);
    off_client.sessions = 1;
    off_client.payloads_per_session = 4;
    off_client.payload_bytes = 256;
    server::ServerConfig off_server = server_config(pki);
    off_server.offload_workers = workers;
    const Timed t = run(server::LoadGenerator(off_load, off_server,
                                              off_client, {}));
    const std::string digest = hex_prefix(t.report.fleet_digest);
    if (off_digest0.empty()) off_digest0 = digest;
    off_digests_match = off_digests_match && digest == off_digest0;
    OffRow row;
    row.workers = workers;
    row.hs_per_s = t.report.full_handshakes_per_s;
    row.mbps = t.report.record_mbps;
    if (workers > 0) {
      // Offload-tier pricing: the host plane sheds the handshake MIPS
      // term entirely; feasibility moves to lane occupancy.
      const platform::OffloadGapReport og = platform::serving_gap_offloaded(
          platform::WorkloadModel::paper_calibrated(),
          platform::Processor::strongarm_sa1100(), served_load(t.report),
          workers, off_server.offload_costs.rsa_decrypt_us / 1e6);
      row.lane_util = og.lane_utilisation;
    }
    off_rows.push_back(row);
    off_tab.add_row(
        {workers == 0 ? "inline" : std::to_string(workers),
         analysis::fmt(row.hs_per_s, 1), analysis::fmt(row.mbps, 3),
         workers == 0 ? "-" : analysis::fmt(row.lane_util, 2),
         std::to_string(t.report.server.offload_peak_depth),
         analysis::fmt(t.wall_ms, 0), digest});
  }
  std::fputs(off_tab.render().c_str(), stdout);
  const double off_scaling =
      off_rows[1].hs_per_s > 0 ? off_rows[3].hs_per_s / off_rows[1].hs_per_s
                               : 0.0;
  const bool offload_ok = off_digests_match && off_scaling >= 2.0 &&
                          off_rows[3].mbps >= off_rows[1].mbps;
  std::printf("digests %s across lane counts (incl. inline); 1->4 lane "
              "handshake scaling %.2fx, record path %.3f -> %.3f Mbit/s\n",
              off_digests_match ? "IDENTICAL" : "DIVERGED", off_scaling,
              off_rows[1].mbps, off_rows[3].mbps);

  // Scenario 6 (E22): batched offload sweep. The same offload fleet on
  // saturated lanes, with each lane draining up to `width` queued jobs
  // per service window (cost(j0) + 0.3 * cost(rest), the BatchModExp ILP
  // model). At width 4 a full window serves 4 ops in 1.9 op-slots —
  // 2.105x the per-op rate — so on a lane-bound fleet the served
  // handshake rate must at least double vs width 1, with the fleet
  // digest byte-identical for every (lanes, width) cell.
  std::puts("\n-- E22: batched offload sweep (same fleet, lanes x batch "
            "width,\n   window cost = op + 0.3/extra op) --");
  struct BatchRow {
    std::size_t lanes = 0;
    std::size_t width = 0;
    double hs_per_s = 0;
    double mbps = 0;
    double util = 0;
    std::uint64_t batched_jobs = 0;
    std::size_t max_fill = 0;
  };
  analysis::Table bat_tab({"lanes", "width", "full hs/s (sim)",
                           "record Mbit/s", "modeled util", "batched jobs",
                           "max fill", "wall ms", "fleet digest"});
  std::vector<BatchRow> bat_rows;
  std::string bat_digest0;
  bool bat_digests_match = true;
  for (std::size_t lanes : {1u, 2u}) {
    for (std::size_t width : {1u, 2u, 4u, 8u}) {
      // 400 clients at 0.5 ms mean arrivals: the lane-bound phase is long
      // enough that the arrival ramp and the last session's record tail
      // (both fixed costs) cannot dilute the window-pricing ratio below
      // the 2x gate.
      server::LoadConfig bat_load = load_config(400);
      bat_load.channel = {};  // loss-free
      bat_load.mean_interarrival_us = 500;
      server::ClientConfig bat_client = client_config(pki);
      bat_client.sessions = 1;
      bat_client.payloads_per_session = 4;
      bat_client.payload_bytes = 256;
      server::ServerConfig bat_server = server_config(pki);
      bat_server.offload_workers = lanes;
      bat_server.offload_batch_width = width;
      const Timed t = run(server::LoadGenerator(bat_load, bat_server,
                                                bat_client, {}));
      const std::string digest = hex_prefix(t.report.fleet_digest);
      if (bat_digest0.empty()) bat_digest0 = digest;
      bat_digests_match = bat_digests_match && digest == bat_digest0;
      const platform::BatchedGapReport bg = platform::serving_gap_batched(
          platform::WorkloadModel::paper_calibrated(),
          platform::Processor::strongarm_sa1100(), served_load(t.report),
          lanes, bat_server.offload_costs.rsa_decrypt_us / 1e6, width,
          bat_server.offload_costs.batch_marginal);
      BatchRow row;
      row.lanes = lanes;
      row.width = width;
      row.hs_per_s = t.report.full_handshakes_per_s;
      row.mbps = t.report.record_mbps;
      row.util = bg.batched_utilisation;
      row.batched_jobs = t.report.server.offload_batched_jobs;
      row.max_fill = t.report.server.offload_max_batch_fill;
      bat_rows.push_back(row);
      bat_tab.add_row({std::to_string(lanes), std::to_string(width),
                       analysis::fmt(row.hs_per_s, 1),
                       analysis::fmt(row.mbps, 3), analysis::fmt(row.util, 2),
                       std::to_string(row.batched_jobs),
                       std::to_string(row.max_fill),
                       analysis::fmt(t.wall_ms, 0), digest});
    }
  }
  std::fputs(bat_tab.render().c_str(), stdout);
  // Rows 0..3 are the 1-lane sweep: widths 1, 2, 4, 8.
  const double batch_scaling =
      bat_rows[0].hs_per_s > 0 ? bat_rows[2].hs_per_s / bat_rows[0].hs_per_s
                               : 0.0;
  const bool batched_ok = bat_digests_match && batch_scaling >= 2.0 &&
                          bat_rows[2].mbps >= bat_rows[0].mbps &&
                          bat_rows[2].batched_jobs > 0;
  std::printf("digests %s across lanes x widths; 1-lane width 1->4 "
              "handshake scaling %.2fx (gate >= 2x), record path "
              "%.3f -> %.3f Mbit/s\n",
              bat_digests_match ? "IDENTICAL" : "DIVERGED", batch_scaling,
              bat_rows[0].mbps, bat_rows[2].mbps);

  // Scenario 4: handshake flood, undefended vs defended. The flood-free
  // baseline run prices the honest fleet's handshake energy; the two
  // flood runs differ only in the admission valve + degraded watermarks,
  // so the energy delta is the attacker's battery bill (Section 3.3).
  const double baseline_energy_mj =
      chaos::CampaignRunner(flood_campaign(pki, false, false))
          .run()
          .handshake_energy_mj;
  const FloodOutcome undefended =
      run_flood(flood_campaign(pki, false, true), baseline_energy_mj);
  const FloodOutcome defended =
      run_flood(flood_campaign(pki, true, true), baseline_energy_mj);

  std::puts("\n-- handshake flood: 40 attackers x 5 connections through "
            "the ClientKeyExchange\n   (12 honest clients riding along; "
            "energy beyond the flood-free baseline) --");
  analysis::Table flood_tab({"metric", "undefended", "defended"});
  auto flood_row = [&](const char* name, auto get, int digits) {
    flood_tab.add_row({name, analysis::fmt(get(undefended), digits),
                       analysis::fmt(get(defended), digits)});
  };
  flood_row("attack connections refused (shed)",
            [](const FloodOutcome& o) {
              return static_cast<double>(o.report.attack_refused);
            },
            0);
  flood_row("full handshakes shed while degraded",
            [](const FloodOutcome& o) {
              return static_cast<double>(o.report.server.degraded_refusals);
            },
            0);
  flood_row("RSA private ops performed",
            [](const FloodOutcome& o) {
              return static_cast<double>(
                  o.report.server.handshake_rsa_private_ops);
            },
            0);
  flood_row("degraded-mode time share",
            [](const FloodOutcome& o) { return o.degraded_time_share; }, 3);
  flood_row("attack-induced energy (mJ)",
            [](const FloodOutcome& o) { return o.attack_energy_mj; }, 1);
  flood_row("mJ per attack byte",
            [](const FloodOutcome& o) { return o.attack_mj_per_byte; }, 4);
  flood_row("honest sessions completed",
            [](const FloodOutcome& o) {
              return static_cast<double>(o.report.sessions_completed);
            },
            0);
  std::fputs(flood_tab.render().c_str(), stdout);
  const bool defense_holds =
      defended.attack_energy_mj < undefended.attack_energy_mj &&
      defended.report.attack_refused > 0 &&
      defended.report.sessions_completed ==
          defended.report.sessions_attempted;
  std::printf("defense %s: %.1f mJ -> %.1f mJ attack bill (%.1fx cheaper), "
              "honest fleet %zu/%zu\n",
              defense_holds ? "HOLDS" : "BROKEN",
              undefended.attack_energy_mj, defended.attack_energy_mj,
              defended.attack_energy_mj > 0
                  ? undefended.attack_energy_mj / defended.attack_energy_mj
                  : 0.0,
              defended.report.sessions_completed,
              defended.report.sessions_attempted);

  // Session-cache index micro-benchmark: the hashed index
  // (BoundedSessionCache, FNV-1a + unordered_map) vs the ordered tree it
  // replaced, at the 10k-entry scale a busy server holds. Uniformly
  // random 16-byte ids are the worst case for a tree (every probe is
  // O(log n) full byte-compares) and the design case for hashing.
  double cache_ns_hashed = 0;
  double cache_ns_tree = 0;
  {
    constexpr std::size_t kEntries = 10'000;
    constexpr std::size_t kLookups = 1'000'000;
    net::EventQueue cache_clock;
    server::BoundedSessionCache hashed(cache_clock,
                                       {.capacity = kEntries, .ttl_us = 0});
    std::map<crypto::Bytes, protocol::SessionCache::Entry> tree;
    crypto::HmacDrbg cache_rng(0x5E55CACE);
    std::vector<crypto::Bytes> ids;
    ids.reserve(kEntries);
    for (std::size_t i = 0; i < kEntries; ++i) {
      crypto::Bytes id = cache_rng.bytes(16);
      protocol::SessionCache::Entry e;
      e.master_secret = cache_rng.bytes(48);
      hashed.store(id, e);
      tree.emplace(id, std::move(e));
      ids.push_back(std::move(id));
    }
    std::size_t found = 0;  // 48271 is coprime to 10'000: full cycle
    const auto c0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kLookups; ++i)
      found += hashed.lookup(ids[(i * 48271u) % kEntries]) != nullptr;
    const auto c1 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kLookups; ++i)
      found += tree.find(ids[(i * 48271u) % kEntries]) != tree.end();
    const auto c2 = std::chrono::steady_clock::now();
    cache_ns_hashed =
        std::chrono::duration<double, std::nano>(c1 - c0).count() / kLookups;
    cache_ns_tree =
        std::chrono::duration<double, std::nano>(c2 - c1).count() / kLookups;
    std::printf("\n-- session-cache index: %zu lookups over %zu entries --\n"
                "hashed %.0f ns/lookup vs ordered tree %.0f ns/lookup "
                "(%.1fx); %zu found\n",
                kLookups, kEntries, cache_ns_hashed, cache_ns_tree,
                cache_ns_hashed > 0 ? cache_ns_tree / cache_ns_hashed : 0.0,
                found);
  }

  // Scenario 7 (E23): cache vs stateless tickets. Two identical fleets —
  // one resuming through the bounded cache, one through encrypted session
  // tickets with the cache disabled outright (capacity 0) — must serve
  // the same load at the same rate (droop gate ±10%) with a byte-
  // identical fleet digest, while the server-side resumption state
  // diverges: O(cached users) vs O(key ring). The 10k/100k/1M rows
  // extrapolate the measured per-user cache footprint; the ticket column
  // is the measured ring and does not move with the user count, so the
  // ticket-tier sessions-per-charge figure is flat across scales by
  // construction (the charge pays only the per-session CCM open/seal).
  std::puts("\n-- E23: bounded cache vs stateless tickets "
            "(150 clients x 4 sessions) --");
  auto ticket_fleet = [&](bool tickets) {
    server::ClientConfig c = client_config(pki);
    c.sessions = 4;
    c.use_session_tickets = tickets;
    server::ServerConfig s = server_config(pki);
    s.ticket.enabled = tickets;
    server::BoundedSessionCache::Config cache_cfg{};
    if (tickets) cache_cfg.capacity = 0;
    return run(server::LoadGenerator(load_config(150), s, c, cache_cfg));
  };
  const Timed tk_cache = ticket_fleet(false);
  const Timed tk_ticket = ticket_fleet(true);
  const server::LoadReport& rc = tk_cache.report;
  const server::LoadReport& rt = tk_ticket.report;
  const double ticket_droop =
      rc.sessions_per_s > 0
          ? (rc.sessions_per_s - rt.sessions_per_s) / rc.sessions_per_s
          : 0.0;
  const double charge_drift =
      rc.gap.sessions_per_charge > 0
          ? std::abs(rt.ticket_gap.host.sessions_per_charge -
                     rc.gap.sessions_per_charge) /
                rc.gap.sessions_per_charge
          : 0.0;
  const double per_user_bytes =
      static_cast<double>(rc.cache_state_bytes) / 150.0;
  const bool ticket_digests_match = rc.fleet_digest == rt.fleet_digest;

  analysis::Table tk_tab({"metric", "cache", "ticket"});
  tk_tab.add_row({"sessions/s (sim)", analysis::fmt(rc.sessions_per_s, 1),
                  analysis::fmt(rt.sessions_per_s, 1)});
  tk_tab.add_row({"resumed handshakes",
                  std::to_string(rc.server.resumed_handshakes),
                  std::to_string(rt.server.resumed_handshakes) + " (" +
                      std::to_string(rt.server.ticket_resumptions) +
                      " via ticket)"});
  tk_tab.add_row({"resumed handshake p50 (ms sim)",
                  analysis::fmt(rc.resumed_handshake_p50_ms, 1),
                  analysis::fmt(rt.resumed_handshake_p50_ms, 1)});
  tk_tab.add_row(
      {"sessions per 26 KJ charge",
       analysis::fmt(rc.gap.sessions_per_charge, 0),
       analysis::fmt(rt.ticket_gap.host.sessions_per_charge, 0)});
  tk_tab.add_row({"resumption state (bytes, measured)",
                  std::to_string(rc.cache_state_bytes),
                  std::to_string(rt.ticket_state_bytes)});
  tk_tab.add_row({"fleet digest", hex_prefix(rc.fleet_digest),
                  hex_prefix(rt.fleet_digest)});
  std::fputs(tk_tab.render().c_str(), stdout);

  analysis::Table scale_tab({"users", "cache state (modeled)",
                             "ticket state", "state ratio"});
  for (const double users : {1e4, 1e5, 1e6}) {
    const double cache_bytes = per_user_bytes * users;
    scale_tab.add_row(
        {analysis::fmt(users, 0), analysis::fmt(cache_bytes, 0),
         std::to_string(rt.ticket_state_bytes),
         analysis::fmt(
             cache_bytes / static_cast<double>(rt.ticket_state_bytes), 0) +
             "x"});
  }
  std::fputs(scale_tab.render().c_str(), stdout);
  const bool ticket_ok = ticket_droop <= 0.10 && charge_drift <= 0.10 &&
                         ticket_digests_match &&
                         rt.server.ticket_resumptions > 0 &&
                         rt.cache_state_bytes == 0 &&
                         rt.ticket_state_bytes < 10'000;
  std::printf("ticket path %s: throughput droop %.1f%% (gate <= 10%%), "
              "charge drift %.1f%%, digests %s, state %.0f B/user -> "
              "%zu B total\n",
              ticket_ok ? "HOLDS" : "DROOPED", ticket_droop * 100,
              charge_drift * 100,
              ticket_digests_match ? "IDENTICAL" : "DIVERGED",
              per_user_bytes, rt.ticket_state_bytes);

  // Scenario 8 (E24): sharded serving tier. The modeled host core makes
  // session processing cost simulated time (800 us per RSA op, 50 us per
  // flight, 20 us per appdata KiB), so ONE event loop is core-bound under
  // this fleet; sharding the tier across N loops (= N modeled cores,
  // each driven by a real thread under the epoch-barrier merge) must
  // scale the aggregate handshake rate >= 3x from 1 to 4 shards while
  // the fleet transcript digest stays byte-identical for {1, 2, 4, 8}.
  std::puts("\n-- E24: sharded serving tier (600 clients, core-bound: "
            "800 us/pk op + 50 us/flight,\n   slice 1 ms; digest must be "
            "byte-identical across shard counts) --");
  struct ShardRow {
    std::size_t shards = 0;
    double hs_per_s = 0;
    double mbps = 0;
    double p99_ms = 0;
    std::uint64_t epochs = 0;
    bool conserved = false;
  };
  analysis::Table sh_tab({"shards", "agg full hs/s (sim)", "record Mbit/s",
                          "hs p99 ms (sim)", "epochs", "wall ms",
                          "fleet digest"});
  std::vector<ShardRow> sh_rows;
  std::string sh_digest0;
  bool sh_digests_match = true;
  bool sh_conserved = true;
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    server::LoadConfig sh_load = load_config(600);
    sh_load.channel = {};  // loss-free: same sessions at any speed
    sh_load.mean_interarrival_us = 200;
    sh_load.poisson_arrivals = false;
    sh_load.shards = shards;
    sh_load.slice_us = 1'000;
    server::ClientConfig sh_client = client_config(pki);
    sh_client.sessions = 1;
    sh_client.payloads_per_session = 2;
    sh_client.payload_bytes = 256;
    sh_client.think_time_us = 0;
    server::ServerConfig sh_server = server_config(pki);
    sh_server.core.us_per_pk_op = 800.0;
    sh_server.core.us_per_flight = 50.0;
    sh_server.core.us_per_appdata_kb = 20.0;
    const auto t0 = std::chrono::steady_clock::now();
    server::LoadGenerator gen(sh_load, sh_server, sh_client,
                              {.capacity = 1'024});
    const server::LoadReport r = gen.run();
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    const std::string digest = hex_prefix(r.fleet_digest);
    if (sh_digest0.empty()) sh_digest0 = digest;
    sh_digests_match = sh_digests_match && digest == sh_digest0;
    sh_conserved = sh_conserved && r.conserved;
    ShardRow row;
    row.shards = shards;
    row.hs_per_s = r.full_handshakes_per_s;
    row.mbps = r.record_mbps;
    row.p99_ms = r.handshake_p99_ms;
    row.epochs = r.epochs;
    row.conserved = r.conserved;
    sh_rows.push_back(row);
    sh_tab.add_row({std::to_string(shards), analysis::fmt(row.hs_per_s, 1),
                    analysis::fmt(row.mbps, 3), analysis::fmt(row.p99_ms, 1),
                    std::to_string(row.epochs), analysis::fmt(wall_ms, 0),
                    digest});
  }
  std::fputs(sh_tab.render().c_str(), stdout);
  // Rows are shards {1, 2, 4, 8}: the 1->4 aggregate-rate gate.
  const double shard_scaling =
      sh_rows[0].hs_per_s > 0 ? sh_rows[2].hs_per_s / sh_rows[0].hs_per_s
                              : 0.0;
  std::printf("digests %s across shard counts; 1->4 shard aggregate "
              "handshake scaling %.2fx (gate >= 3x); 4-shard p99 %.1f ms "
              "off the merged per-shard histograms\n",
              sh_digests_match ? "IDENTICAL" : "DIVERGED", shard_scaling,
              sh_rows[2].p99_ms);

  // E24 soak: 10'000 concurrent sessions on 8 shards. Lingering clients
  // (handshake, then silence) pile up until the server's idle reaper
  // closes them, so the barrier-observed fleet peak must reach the full
  // 10k while per-shard sums still conserve against the fleet totals.
  std::puts("\n-- E24 soak: 10k concurrent lingering sessions on 8 shards "
            "--");
  server::LoadConfig soak_load = load_config(10'000);
  soak_load.channel = {};
  soak_load.mean_interarrival_us = 100;
  soak_load.poisson_arrivals = false;
  soak_load.shards = 8;
  soak_load.slice_us = 1'000;
  server::ClientConfig soak_client = client_config(pki);
  soak_client.linger = true;
  server::LoadGenerator soak_gen(soak_load, server_config(pki), soak_client,
                                 {.capacity = 16'384});
  const auto soak_t0 = std::chrono::steady_clock::now();
  const server::LoadReport soak = soak_gen.run();
  const double soak_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - soak_t0)
          .count();
  std::printf("peak open connections %zu (gate >= 10000), handshakes "
              "completed %llu, idle closes %llu,\nper-shard sums %s fleet "
              "totals, %llu epochs, wall %.0f ms\n",
              soak.peak_open_connections,
              static_cast<unsigned long long>(
                  soak.server.handshakes_completed),
              static_cast<unsigned long long>(soak.server.idle_closes),
              soak.conserved ? "MATCH" : "DIVERGE",
              static_cast<unsigned long long>(soak.epochs), soak_wall_ms);
  const bool sharded_ok = sh_digests_match && sh_conserved &&
                          shard_scaling >= 3.0 &&
                          soak.peak_open_connections >= 10'000 &&
                          soak.conserved &&
                          soak.server.handshakes_completed >= 10'000;

  // Scenario 9 (E25): supervised shard failure at fleet scale. The crash
  // lands after every client's first session has completed (arrivals span
  // ~300 ms of sim time), so each victim holds a session ticket — the
  // zero-state failover path: reconnect to the rendezvous survivor,
  // resume by ticket, zero server cache bytes and zero pk ops.
  std::puts("\n-- E25: supervised failover (150 clients x 4 sessions on 4 "
            "shards, tickets on;\n   shard 1 hard-crashed mid-flood, warm "
            "rejoin after 500 ms) --");
  constexpr double kBlackoutBudgetMs = 250.0;
  auto failover_campaign = [&](bool crash) {
    chaos::CampaignConfig cfg;
    cfg.seed = 0xE25;
    cfg.shards = 4;
    cfg.honest_clients = 150;
    cfg.mean_interarrival_us = 2'000;
    cfg.server = server_config(pki);
    cfg.server.ticket.enabled = true;
    cfg.client = client_config(pki);
    cfg.client.sessions = 4;
    cfg.client.use_session_tickets = true;
    cfg.client.retry_budget = 6;
    cfg.cache.capacity = 0;  // stateless: nothing for the crash to lose
    if (crash)
      cfg.faults.push_back(chaos::ShardCrash{
          .at_us = 400'000, .shard = 1, .repair_us = 500'000});
    return cfg;
  };
  const auto fo_t0 = std::chrono::steady_clock::now();
  const chaos::CampaignReport fo_calm =
      chaos::CampaignRunner(failover_campaign(false)).run();
  const chaos::CampaignReport fo =
      chaos::CampaignRunner(failover_campaign(true)).run();
  const chaos::CampaignReport fo_rerun =
      chaos::CampaignRunner(failover_campaign(true)).run();
  const double fo_wall_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - fo_t0)
                                .count();
  const bool fo_digest_rerun = fo.fleet_digest == fo_rerun.fleet_digest;
  const bool fo_digest_calm = fo.fleet_digest == fo_calm.fleet_digest;

  // Price the outage against the calm run's served rates on the
  // appliance-class core.
  platform::ServedLoad fo_load;
  if (fo_calm.sim_duration_s > 0) {
    const double dur = fo_calm.sim_duration_s;
    const auto& ss = fo_calm.server;
    fo_load.full_handshakes_per_s =
        static_cast<double>(ss.full_handshakes) / dur;
    fo_load.resumed_handshakes_per_s =
        static_cast<double>(ss.resumed_handshakes) / dur;
    fo_load.bulk_mbps = static_cast<double>(ss.bytes_opened +
                                            ss.bytes_sealed) *
                        8.0 / dur / 1e6;
    fo_load.sessions_per_s =
        static_cast<double>(fo_calm.sessions_completed) / dur;
    fo_load.avg_session_kb =
        fo_calm.sessions_completed > 0
            ? static_cast<double>(ss.bytes_opened + ss.bytes_sealed) /
                  1024.0 / static_cast<double>(fo_calm.sessions_completed)
            : 0;
  }
  const platform::FailoverGapReport fo_gap = platform::serving_gap_failover(
      platform::WorkloadModel::paper_calibrated(),
      platform::Processor::strongarm_sa1100(), fo_load, /*shards=*/4,
      /*slice_us=*/1'000.0,
      static_cast<double>(fo.client_reconnects),
      std::max(fo.blackout_p99_ms, 1.0) / 1000.0);

  analysis::Table fo_tab({"metric", "value"});
  fo_tab.add_row({"honest sessions lost (gate == 0)",
                  std::to_string(fo.sessions_failed)});
  fo_tab.add_row(
      {"sessions completed / attempted",
       std::to_string(fo.sessions_completed) + " / " +
           std::to_string(fo.sessions_attempted)});
  fo_tab.add_row({"connections killed by the crash",
                  std::to_string(fo.connections_killed)});
  fo_tab.add_row({"clients migrated / reconnects / ticket resumes",
                  std::to_string(fo.clients_migrated) + " / " +
                      std::to_string(fo.client_reconnects) + " / " +
                      std::to_string(fo.failover_resumes)});
  fo_tab.add_row({"client blackout p50 / p99 ms (budget " +
                      analysis::fmt(kBlackoutBudgetMs, 0) + ")",
                  analysis::fmt(fo.blackout_p50_ms, 1) + " / " +
                      analysis::fmt(fo.blackout_p99_ms, 1)});
  fo_tab.add_row({"digest vs rerun / vs undisturbed",
                  std::string(fo_digest_rerun ? "IDENTICAL" : "DIVERGED") +
                      " / " +
                      (fo_digest_calm ? "IDENTICAL" : "DIVERGED")});
  fo_tab.add_row({"degraded survivor demand (MIPS)",
                  analysis::fmt(fo_gap.degraded_required_mips, 1) +
                      " (steady per-shard " +
                      analysis::fmt(fo_gap.steady.per_shard_required_mips,
                                    1) +
                      ")"});
  fo_tab.add_row({"crash energy, tickets vs full RSA (mJ)",
                  analysis::fmt(fo_gap.crash_energy_mj, 2) + " vs " +
                      analysis::fmt(fo_gap.crash_energy_full_mj, 2)});
  fo_tab.add_row({"ticket failover saving",
                  analysis::fmt(fo_gap.ticket_saving_ratio, 1) + "x"});
  fo_tab.add_row({"wall clock, 3 campaigns (ms)",
                  analysis::fmt(fo_wall_ms, 0)});
  std::fputs(fo_tab.render().c_str(), stdout);

  const bool failover_ok =
      fo.invariants_ok() && fo_calm.invariants_ok() &&
      fo.sessions_failed == 0 &&
      fo.sessions_completed == fo.sessions_attempted &&
      fo.shard_crashes == 1 && fo.shard_rejoins == 1 &&
      fo.client_reconnects > 0 &&
      fo.failover_resumes == fo.client_reconnects &&
      fo.blackout_p99_ms <= kBlackoutBudgetMs && fo_digest_rerun &&
      fo_digest_calm && fo_gap.ticket_saving_ratio > 1.0;
  std::printf("failover SLO %s: %zu reconnects all resumed by ticket, "
              "0 sessions lost, digests %s\n",
              failover_ok ? "HOLDS" : "BROKEN", fo.client_reconnects,
              fo_digest_rerun && fo_digest_calm ? "pinned" : "DIVERGED");
  if (!fo.invariants_ok())
    std::printf("campaign invariants: %s\n", fo.invariant_failures.c_str());

  // Scenario 10 (E26): the real-socket bearer at wall-clock speed. The
  // sim reference run (loss-free channels) fixes what the session
  // outcomes MUST be; a 2-shard loopback fleet plus two child processes
  // then reproduce them over real TCP. Rates here are wall-clock and
  // host-dependent — informational by naming convention (_wall suffix) —
  // while the outcome equality, conservation and zero-allocation gates
  // are structural.
  std::puts("\n-- E26: real-socket bearer (2 shards on loopback TCP, "
            "2 processes x 30 clients\n   x 2 sessions, outcomes vs the "
            "sim run for the same seed) --");
  constexpr std::size_t kSocketClients = 60;
  constexpr std::uint64_t kSocketSeed = 0xE26;
  SocketWallclock sw;
  if (!net::sockets_available()) {
    std::puts("SKIP: loopback TCP unavailable in this sandbox — outcome "
              "gates pass vacuously");
  } else {
    server::ClientConfig socket_client = client_config(pki);
    socket_client.sessions = 2;
    server::BoundedSessionCache::Config socket_cache;
    socket_cache.capacity = 128;  // >= clients: loss-free resumption mix
    socket_cache.ttl_us = 0;
    server::LoadConfig ref_load;
    ref_load.num_clients = kSocketClients;
    ref_load.seed = kSocketSeed;
    ref_load.appliance = platform::Processor::strongarm_sa1100();
    const Timed sock_ref = run(server::LoadGenerator(
        ref_load, server_config(pki), socket_client, socket_cache));
    const server::LoadReport& ref = sock_ref.report;

    server::SocketFleetConfig fleet_cfg;
    fleet_cfg.shards = 2;
    fleet_cfg.seed = kSocketSeed;
    fleet_cfg.reserve_slabs_per_shard = 256;
    server::SocketServerFleet fleet(fleet_cfg, server_config(pki),
                                    socket_cache);
    if (!fleet.ok()) {
      std::puts("SKIP: could not bind loopback listeners");
    } else {
      fleet.start();
      std::string csv;
      for (std::uint16_t port : fleet.ports()) {
        if (!csv.empty()) csv += ',';
        csv += std::to_string(port);
      }
      const std::string base =
          self_dir() + "/bench_socket_load_gen --ports=" + csv +
          " --seed=" + std::to_string(kSocketSeed) +
          " --sessions=2 --clients=" + std::to_string(kSocketClients / 2);
      FILE* pa = popen((base + " --first=0").c_str(), "r");
      FILE* pb =
          popen((base + " --first=" + std::to_string(kSocketClients / 2))
                    .c_str(),
                "r");
      const ChildOutcome ca = read_child(pa);
      const ChildOutcome cb = read_child(pb);
      const server::SocketServerFleet::Report servers = fleet.stop();

      const std::size_t attempted =
          ca.num("sessions_attempted") + cb.num("sessions_attempted");
      const std::size_t completed =
          ca.num("sessions_completed") + cb.num("sessions_completed");
      const std::size_t failed =
          ca.num("sessions_failed") + cb.num("sessions_failed");
      sw.echo_mismatches =
          ca.num("echo_mismatches") + cb.num("echo_mismatches");
      sw.bearer_errors = ca.num("bearer_errors") + cb.num("bearer_errors");
      sw.children_ok = ca.ok && cb.ok;
      sw.accepted = servers.accepted;
      sw.conserved = servers.conserved;
      sw.zero_alloc =
          servers.zero_steady_state_alloc &&
          ca.num("arena_allocations") == ca.num("arena_reserved") &&
          cb.num("arena_allocations") == cb.num("arena_reserved");
      sw.outcome_equal =
          attempted == ref.sessions_attempted &&
          completed == ref.sessions_completed &&
          failed == ref.sessions_failed &&
          servers.server.full_handshakes == ref.server.full_handshakes &&
          servers.server.resumed_handshakes ==
              ref.server.resumed_handshakes &&
          servers.server.bytes_opened == ref.server.bytes_opened &&
          servers.server.bytes_sealed == ref.server.bytes_sealed;

      // Refold the global fleet digest from the children's per-client
      // digest blocks (process order = global client-id order).
      std::vector<crypto::Bytes> lane_bytes = decode_digests(
          ca.kv.count("digests") ? ca.kv.at("digests") : std::string());
      std::vector<crypto::Bytes> lanes_b = decode_digests(
          cb.kv.count("digests") ? cb.kv.at("digests") : std::string());
      lane_bytes.insert(lane_bytes.end(), lanes_b.begin(), lanes_b.end());
      std::vector<crypto::ConstBytes> lanes;
      lanes.reserve(lane_bytes.size());
      for (const crypto::Bytes& d : lane_bytes) lanes.emplace_back(d);
      sw.digest_match = lane_bytes.size() == kSocketClients &&
                        server::fold_fleet_digest(lanes) == ref.fleet_digest;

      sw.wall_s = std::max(ca.real("wall_s"), cb.real("wall_s"));
      if (sw.wall_s > 0) {
        sw.full_per_s_wall =
            static_cast<double>(servers.server.full_handshakes) / sw.wall_s;
        sw.resumed_per_s_wall =
            static_cast<double>(servers.server.resumed_handshakes) /
            sw.wall_s;
        sw.record_mbps_wall =
            static_cast<double>(servers.server.bytes_opened +
                                servers.server.bytes_sealed) *
            8.0 / sw.wall_s / 1e6;
      }
      if (ref.full_handshakes_per_s > 0)
        sw.wall_over_modeled_full =
            sw.full_per_s_wall / ref.full_handshakes_per_s;
      if (ref.record_mbps > 0)
        sw.wall_over_modeled_record = sw.record_mbps_wall / ref.record_mbps;
      sw.skipped = false;

      analysis::Table st(
          {"metric", "sim-modeled (SA-1100)", "wall-clock", "wall/modeled"});
      st.add_row({"full handshakes /s",
                  analysis::fmt(ref.full_handshakes_per_s, 1),
                  analysis::fmt(sw.full_per_s_wall, 1),
                  analysis::fmt(sw.wall_over_modeled_full, 1) + "x"});
      st.add_row(
          {"resumed handshakes /s",
           analysis::fmt(ref.resumed_handshakes_per_s, 1),
           analysis::fmt(sw.resumed_per_s_wall, 1),
           ref.resumed_handshakes_per_s > 0
               ? analysis::fmt(sw.resumed_per_s_wall /
                                   ref.resumed_handshakes_per_s,
                               1) +
                     "x"
               : std::string("-")});
      st.add_row({"record Mbit/s", analysis::fmt(ref.record_mbps, 2),
                  analysis::fmt(sw.record_mbps_wall, 2),
                  analysis::fmt(sw.wall_over_modeled_record, 1) + "x"});
      st.add_row({"sessions completed",
                  std::to_string(ref.sessions_completed),
                  std::to_string(completed),
                  sw.outcome_equal ? "EQUAL" : "DIVERGED"});
      st.add_row({"fleet digest", hex_prefix(ref.fleet_digest),
                  sw.digest_match ? hex_prefix(ref.fleet_digest)
                                  : std::string("DIVERGED"),
                  sw.digest_match ? "IDENTICAL" : "DIVERGED"});
      std::fputs(st.render().c_str(), stdout);
      std::printf(
          "socket bearer %s: outcomes %s, digest %s, conserved %s, "
          "zero-alloc %s, %" PRIu64 " bearer errors, wall %.2f s\n",
          sw.ok() ? "MATCHES SIM" : "BROKEN",
          sw.outcome_equal ? "equal" : "DIVERGED",
          sw.digest_match ? "identical" : "DIVERGED",
          sw.conserved ? "yes" : "NO", sw.zero_alloc ? "yes" : "NO",
          sw.bearer_errors, sw.wall_s);
    }
  }
  const bool socket_ok = sw.ok();

  // Machine-readable baseline.
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"experiment\": \"E18-E26\",\n"
               "  \"mapsec_build_type\": \"%s\",\n"
               "  \"crypto_dispatch\": \"%s\",\n"
               "  \"scenarios\": {\n",
               mapsec::bench::build_type(),
               full.report.crypto_backend.c_str());
  write_scenario_json(f, "full_only", full, full_accel, true);
  write_scenario_json(f, "resumption_heavy", resumed, resumed_accel, false);
  // The flood block carries no *_per_s/_mbps fields on purpose: these are
  // robustness metrics, not throughput, so ci/bench_compare.py skips them
  // and adding fields here can never break a baseline comparison.
  auto write_flood = [f](const char* key, const FloodOutcome& o,
                         bool trailing_comma) {
    std::fprintf(
        f,
        "    \"%s\": {\n"
        "      \"attack_connections\": %llu,\n"
        "      \"attack_bytes\": %llu,\n"
        "      \"attack_refused\": %llu,\n"
        "      \"degraded_refusals\": %llu,\n"
        "      \"rsa_private_ops\": %llu,\n"
        "      \"degraded_time_share\": %.4f,\n"
        "      \"attack_energy_mj\": %.2f,\n"
        "      \"attack_mj_per_byte\": %.5f,\n"
        "      \"honest_sessions_completed\": %zu,\n"
        "      \"honest_sessions_attempted\": %zu\n"
        "    }%s\n",
        key,
        static_cast<unsigned long long>(o.report.attack_connections),
        static_cast<unsigned long long>(o.report.attack_bytes),
        static_cast<unsigned long long>(o.report.attack_refused),
        static_cast<unsigned long long>(o.report.server.degraded_refusals),
        static_cast<unsigned long long>(
            o.report.server.handshake_rsa_private_ops),
        o.degraded_time_share, o.attack_energy_mj, o.attack_mj_per_byte,
        o.report.sessions_completed, o.report.sessions_attempted,
        trailing_comma ? "," : "");
  };
  std::fprintf(f,
               "  },\n"
               "  \"flood\": {\n"
               "    \"baseline_handshake_energy_mj\": %.2f,\n",
               baseline_energy_mj);
  write_flood("undefended", undefended, true);
  write_flood("defended", defended, false);
  std::fprintf(f,
               "  },\n"
               "  \"offload_sweep\": {\n");
  const char* off_keys[] = {"inline_pk", "lanes_1", "lanes_2", "lanes_4"};
  for (std::size_t i = 0; i < off_rows.size(); ++i) {
    std::fprintf(f,
                 "    \"%s\": {\n"
                 "      \"full_handshakes_per_s\": %.3f,\n"
                 "      \"record_mbps\": %.3f,\n"
                 "      \"lane_utilisation\": %.3f\n"
                 "    }%s\n",
                 off_keys[i], off_rows[i].hs_per_s, off_rows[i].mbps,
                 off_rows[i].lane_util,
                 i + 1 < off_rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  },\n"
               "  \"batched_offload_sweep\": {\n");
  for (std::size_t i = 0; i < bat_rows.size(); ++i) {
    std::fprintf(f,
                 "    \"lanes_%zu_width_%zu\": {\n"
                 "      \"full_handshakes_per_s\": %.3f,\n"
                 "      \"record_mbps\": %.3f,\n"
                 "      \"batched_utilisation\": %.3f\n"
                 "    }%s\n",
                 bat_rows[i].lanes, bat_rows[i].width, bat_rows[i].hs_per_s,
                 bat_rows[i].mbps, bat_rows[i].util,
                 i + 1 < bat_rows.size() ? "," : "");
  }
  // The ticket_scale block follows the report convention: the two
  // comparable rates carry _per_s suffixes; droop, state-bytes and
  // extrapolation fields carry none, so bench_compare.py skips them.
  std::fprintf(
      f,
      "  },\n"
      "  \"ticket_scale\": {\n"
      "    \"cache_sessions_per_s\": %.3f,\n"
      "    \"ticket_sessions_per_s\": %.3f,\n"
      "    \"cache_record_mbps\": %.3f,\n"
      "    \"ticket_record_mbps\": %.3f,\n"
      "    \"throughput_droop\": %.4f,\n"
      "    \"cache_sessions_per_charge\": %.1f,\n"
      "    \"ticket_sessions_per_charge\": %.1f,\n"
      "    \"cache_state_bytes_per_user\": %.1f,\n"
      "    \"ticket_state_bytes\": %zu,\n"
      "    \"cache_state_bytes_10k_users\": %.0f,\n"
      "    \"cache_state_bytes_100k_users\": %.0f,\n"
      "    \"cache_state_bytes_1m_users\": %.0f,\n"
      "    \"ticket_resumptions\": %llu,\n"
      "    \"digests_match\": %s\n"
      "  },\n",
      rc.sessions_per_s, rt.sessions_per_s, rc.record_mbps, rt.record_mbps,
      ticket_droop, rc.gap.sessions_per_charge,
      rt.ticket_gap.host.sessions_per_charge, per_user_bytes,
      rt.ticket_state_bytes, per_user_bytes * 1e4, per_user_bytes * 1e5,
      per_user_bytes * 1e6,
      static_cast<unsigned long long>(rt.server.ticket_resumptions),
      ticket_digests_match ? "true" : "false");
  // Shard sweep: the per-count aggregate rates carry comparable
  // suffixes; scaling, digest and soak fields carry none.
  std::fprintf(f, "  \"shard_sweep\": {\n");
  for (std::size_t i = 0; i < sh_rows.size(); ++i) {
    std::fprintf(f,
                 "    \"shards_%zu\": {\n"
                 "      \"full_handshakes_per_s\": %.3f,\n"
                 "      \"record_mbps\": %.3f,\n"
                 "      \"handshake_p99_ms\": %.3f,\n"
                 "      \"merge_epochs\": %llu\n"
                 "    },\n",
                 sh_rows[i].shards, sh_rows[i].hs_per_s, sh_rows[i].mbps,
                 sh_rows[i].p99_ms,
                 static_cast<unsigned long long>(sh_rows[i].epochs));
  }
  std::fprintf(f,
               "    \"scaling_1_to_4\": %.2f,\n"
               "    \"digests_match\": %s,\n"
               "    \"soak_peak_open_connections\": %zu,\n"
               "    \"soak_conserved\": %s\n"
               "  },\n",
               shard_scaling, sh_digests_match ? "true" : "false",
               soak.peak_open_connections, soak.conserved ? "true" : "false");
  // Failover SLOs are structural gates (absolute, not baseline-compared):
  // no field carries a _per_s/_mbps suffix, so bench_compare.py's rate
  // comparison skips the block and check_failover_slo enforces it.
  std::fprintf(
      f,
      "  \"failover_slo\": {\n"
      "    \"shards\": 4,\n"
      "    \"fleet_clients\": 150,\n"
      "    \"sessions_each\": 4,\n"
      "    \"sessions_lost\": %zu,\n"
      "    \"sessions_completed\": %zu,\n"
      "    \"sessions_attempted\": %zu,\n"
      "    \"connections_killed\": %llu,\n"
      "    \"clients_migrated\": %llu,\n"
      "    \"client_reconnects\": %zu,\n"
      "    \"failover_resumes\": %zu,\n"
      "    \"blackout_p50_ms\": %.3f,\n"
      "    \"blackout_p99_ms\": %.3f,\n"
      "    \"blackout_budget_ms\": %.1f,\n"
      "    \"digest_match_rerun\": %s,\n"
      "    \"digest_match_undisturbed\": %s,\n"
      "    \"missed_heartbeats\": %llu,\n"
      "    \"degraded_required_mips\": %.2f,\n"
      "    \"crash_energy_mj\": %.3f,\n"
      "    \"crash_energy_full_mj\": %.3f,\n"
      "    \"ticket_saving_ratio\": %.2f\n"
      "  },\n",
      fo.sessions_failed, fo.sessions_completed, fo.sessions_attempted,
      static_cast<unsigned long long>(fo.connections_killed),
      static_cast<unsigned long long>(fo.clients_migrated),
      fo.client_reconnects, fo.failover_resumes, fo.blackout_p50_ms,
      fo.blackout_p99_ms, kBlackoutBudgetMs,
      fo_digest_rerun ? "true" : "false",
      fo_digest_calm ? "true" : "false",
      static_cast<unsigned long long>(fo.missed_heartbeats),
      fo_gap.degraded_required_mips, fo_gap.crash_energy_mj,
      fo_gap.crash_energy_full_mj, fo_gap.ticket_saving_ratio);
  // Socket wall-clock block: the rates carry _wall-suffixed names (NOT
  // _per_s/_mbps), so bench_compare.py never baseline-compares them —
  // they are host-dependent by nature. check_socket_wallclock instead
  // structurally asserts the outcome-equality/conservation gates.
  if (sw.skipped) {
    std::fprintf(f,
                 "  \"socket_wallclock\": {\n"
                 "    \"skipped\": true\n"
                 "  },\n");
  } else {
    std::fprintf(
        f,
        "  \"socket_wallclock\": {\n"
        "    \"skipped\": false,\n"
        "    \"shards\": 2,\n"
        "    \"fleet_clients\": %zu,\n"
        "    \"sessions_each\": 2,\n"
        "    \"processes\": 2,\n"
        "    \"outcome_equal\": %s,\n"
        "    \"digest_match\": %s,\n"
        "    \"conserved\": %s,\n"
        "    \"zero_steady_state_alloc\": %s,\n"
        "    \"echo_mismatches\": %llu,\n"
        "    \"bearer_errors\": %llu,\n"
        "    \"accepted\": %llu,\n"
        "    \"wall_s\": %.4f,\n"
        "    \"full_handshakes_wall\": %.3f,\n"
        "    \"resumed_handshakes_wall\": %.3f,\n"
        "    \"record_mbit_wall\": %.3f,\n"
        "    \"wall_over_modeled_full\": %.3f,\n"
        "    \"wall_over_modeled_record\": %.3f\n"
        "  },\n",
        kSocketClients, sw.outcome_equal ? "true" : "false",
        sw.digest_match ? "true" : "false", sw.conserved ? "true" : "false",
        sw.zero_alloc ? "true" : "false",
        static_cast<unsigned long long>(sw.echo_mismatches),
        static_cast<unsigned long long>(sw.bearer_errors),
        static_cast<unsigned long long>(sw.accepted), sw.wall_s,
        sw.full_per_s_wall, sw.resumed_per_s_wall, sw.record_mbps_wall,
        sw.wall_over_modeled_full, sw.wall_over_modeled_record);
  }
  // The ns/lookup figures are wall-clock (machine-dependent) and carry
  // no _per_s/_mbps suffix, so bench_compare.py ignores them by
  // construction.
  std::fprintf(f,
               "  \"offload_digests_match\": %s,\n"
               "  \"offload_scaling_1_to_4\": %.2f,\n"
               "  \"batched_digests_match\": %s,\n"
               "  \"batched_scaling_width_1_to_4\": %.2f,\n"
               "  \"session_cache_hashed_ns_per_lookup\": %.1f,\n"
               "  \"session_cache_tree_ns_per_lookup\": %.1f,\n"
               "  \"bulk_record_mbps\": %.3f,\n"
               "  \"worker_sweep_digests_match\": %s,\n"
               "  \"flood_defense_holds\": %s,\n"
               "  \"sharded_ok\": %s,\n"
               "  \"failover_ok\": %s,\n"
               "  \"socket_ok\": %s\n"
               "}\n",
               off_digests_match ? "true" : "false", off_scaling,
               bat_digests_match ? "true" : "false", batch_scaling,
               cache_ns_hashed, cache_ns_tree, bulk_mbps,
               digests_match ? "true" : "false",
               defense_holds ? "true" : "false",
               sharded_ok ? "true" : "false",
               failover_ok ? "true" : "false", socket_ok ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());
  return digests_match && defense_holds && offload_ok && batched_ok &&
                 ticket_ok && sharded_ok && failover_ok && socket_ok
             ? 0
             : 1;
}
