// Closed-loop benchmark of the socket serving tier.
//
//   sockbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//   sockbench --self-test
//
// Each run serves one workload from a 2-shard fleet over loopback TCP,
// with one generator thread (this one) keeping 4 sessions in flight,
// closed loop. --trace 0 serves through server::SocketServerFleet and
// prints the end-to-end metrics; --trace 1 splits the measured time
// between the same load untraced and against traced shards, calibrates
// per-op costs, and prints the per-layer metrics. Either way the last
// stdout line is one JSON object; a failed correctness gate makes it
// {"correct": false, ..., "metrics": {}} and the exit code 1. Exit code
// 3: loopback TCP is unavailable here, so nothing was measured.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "common.hpp"
#include "loadgen.hpp"
#include "mapsec/analysis/stats.hpp"
#include "mapsec/crypto/dispatch.hpp"
#include "server_pki.hpp"
#include "span_report.hpp"
#include "traced_fleet.hpp"

#ifndef SOCKBENCH_BUILD_TYPE
#define SOCKBENCH_BUILD_TYPE "unknown"
#endif

using namespace mapsec;
using namespace sockbench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
  bool json = true;  // false: printed on the summary lines only
};

// Everything a --trace 0 run prints; its JSON carries the `json` ones, in
// BENCHMARK.json order. failed_ratio is held at 0 by a gate, and the p99s
// swing with the host's vCPU stalls too far to judge a change by.
constexpr MetricSpec kEndToEnd[] = {
    {"sessions_per_s", "sessions/s"},
    {"txn_p50_ms", "ms"},
    {"handshake_p50_ms", "ms"},
    {"record_mbps", "Mbit/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"txn_p99_ms", "ms", false},
    {"handshake_p99_ms", "ms", false},
    {"failed_ratio", "ratio", false},
};

// Everything a --trace 1 run reports in its JSON.
constexpr MetricSpec kPerLayer[] = {
    {"net.poll_cpu_us_per_session", "us/session"},
    {"net.poll_wait_share", "ratio"},
    {"net.tx_send_us_per_frame", "us/frame"},
    {"net.frames_per_session", "frames/session"},
    {"net.syscalls_per_session", "calls/session"},
    {"net.wire_bytes_per_payload_byte", "ratio"},
    {"net.link_acks_per_session", "acks/session"},
    {"net.link_retransmit_ratio", "ratio"},
    {"net.arena_alloc_ratio", "ratio"},
    {"server.rx_handler_us_per_session", "us/session"},
    {"server.rx_handler_us_p99", "us"},
    {"server.reply_wait_us_p50", "us"},
    {"server.reply_wait_us_p99", "us"},
    {"server.shard_cpu_util", "ratio"},
    {"server.cache_lookup_us", "us"},
    {"server.cache_hit_ratio", "ratio"},
    {"server.resumed_share", "ratio"},
    {"server.retained_kb_per_session", "KiB/session"},
    {"protocol.server_handshake_full_us", "us"},
    {"protocol.server_handshake_resumed_us", "us"},
    {"protocol.record_open_aes_us_per_kib", "us/KiB"},
    {"protocol.record_open_3des_us_per_kib", "us/KiB"},
    {"crypto.rsa_private_us", "us"},
    {"crypto.rsa_private_ops_per_session", "ops/session"},
    {"engine.pipeline_batch_us", "us"},
    {"ticket.seal_us", "us"},
    {"ticket.open_us", "us"},
    {"ticket.ops_per_session", "ops/session"},
    {"loadgen.cpu_util", "ratio"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

constexpr double kGeneratorBound = 0.9;
constexpr int kSegments = 10;      // fresh worlds per --trace 0 run
constexpr double kWarmupS = 0.2;   // per world, before its window opens
constexpr double kBinS = 0.5;      // rate bins of a --trace 0 window
constexpr net::SimTime kLoopbackRtoUs = 2'000'000;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  bool json = true;
};

/// A finished measurement: what the JSON line and the summary print.
struct Outcome {
  std::vector<Metric> metrics;
  std::vector<std::string> gate_failures;
  std::vector<std::string> notes;  // extra human-readable lines
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

template <std::size_t N>
void add(std::vector<Metric>& out, const MetricSpec (&table)[N],
         const char* name, double value) {
  for (const MetricSpec& spec : table)
    if (std::strcmp(spec.name, name) == 0) {
      out.push_back({name, spec.unit, value, spec.json});
      return;
    }
  throw std::logic_error(std::string("metric not in the table: ") + name);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string format(const char* fmt, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, a, b, c);
  return buf;
}

// ---- one server + generator world ---------------------------------------

struct World {
  // Teardown runs bottom-up: generator clients, then the server, then the
  // PKI the server's config points into.
  std::unique_ptr<bench::Pki> pki;
  server::ServerConfig server_cfg;
  server::ClientConfig client_cfg;
  std::unique_ptr<server::SocketServerFleet> fleet;
  std::unique_ptr<TracedFleet> traced;
  std::unique_ptr<ClosedLoop> gen;
};

/// Everything `setup_s` times: PKI generation, fleet bind and start, and
/// generator set-up. `trusted_root` replaces the clients' trust anchor.
std::unique_ptr<World> build_world(const Workload& w, std::uint64_t seed,
                                   bool traced,
                                   const protocol::Certificate* trusted_root =
                                       nullptr) {
  auto world = std::make_unique<World>();
  world->pki = std::make_unique<bench::Pki>(bench::Pki::make());
  world->server_cfg = bench::pki_server_config(*world->pki);
  world->server_cfg.ticket.enabled = w.tickets;
  world->client_cfg = bench::pki_client_config(*world->pki);
  // TCP delivers every segment; a link retransmit over loopback only
  // means a reactor was busy past the RTO (a 3DES burst on a slow host
  // second), and its duplicates feed back into the next burst.
  for (net::LinkConfig* link : {&world->server_cfg.link,
                                &world->client_cfg.link}) {
    link->initial_rto_us = kLoopbackRtoUs;
    link->max_rto_us = kLoopbackRtoUs;
  }
  if (trusted_root != nullptr)
    world->client_cfg.handshake.trusted_roots = {*trusted_root};

  // The `session_server --listen` fleet.
  server::SocketFleetConfig fleet_cfg;
  fleet_cfg.shards = kShards;
  fleet_cfg.reserve_slabs_per_shard = 256;
  fleet_cfg.seed = seed;
  const server::BoundedSessionCache::Config cache{.capacity = 256, .ttl_us = 0};

  std::vector<std::uint16_t> ports;
  if (traced) {
    world->traced =
        std::make_unique<TracedFleet>(fleet_cfg, world->server_cfg, cache);
    if (!world->traced->ok())
      throw std::runtime_error("cannot bind loopback listeners");
    ports = world->traced->ports();
    world->traced->start();
  } else {
    world->fleet = std::make_unique<server::SocketServerFleet>(
        fleet_cfg, world->server_cfg, cache);
    if (!world->fleet->ok())
      throw std::runtime_error("cannot bind loopback listeners");
    ports = world->fleet->ports();
    world->fleet->start();
  }
  world->gen = std::make_unique<ClosedLoop>(w, world->client_cfg,
                                            world->server_cfg, seed, ports,
                                            traced);
  return world;
}

struct Segment {
  GenResult gen;
  ServerTotals server;
  double rss_t0_mib = 0;
  double rss_end_mib = 0;
  ShardClocks clocks_t0, clocks_t1, clocks_end;
  std::vector<std::vector<Span>> spans;
};

/// Run the world's load, then stop it: the generator's clients go first,
/// so every connection resolves before the server's books close.
Segment run_segment(World& world, double warmup_s, double seconds) {
  Segment seg;
  seg.gen = world.gen->run(warmup_s, seconds, [&](bool opening) {
    if (opening) seg.rss_t0_mib = proc_status_mib("VmRSS");
    if (world.traced)
      (opening ? seg.clocks_t0 : seg.clocks_t1) = world.traced->clocks();
  });
  seg.rss_end_mib = proc_status_mib("VmRSS");
  world.gen.reset();
  if (world.traced) {
    TracedFleet::Report r = world.traced->stop();
    seg.server = r.totals;
    seg.spans = std::move(r.spans);
    seg.clocks_end = world.traced->clocks();
  } else {
    seg.server = totals_of(world.fleet->stop());
  }
  return seg;
}

double failed_ratio(const Tally& t) {
  return ratio(static_cast<double>(t.failed + t.echo_bad),
               static_cast<double>(t.sessions));
}

std::vector<std::string> check_gates(const Workload& w, const Segment& seg) {
  std::vector<std::string> fails;
  const Tally& all = seg.gen.all;
  if (!seg.gen.drained)
    fails.push_back("in-flight transactions did not finish after the window");
  if (seg.gen.window.completed == 0)
    fails.push_back("no session completed inside the measured window");
  if (all.echo_bad != 0)
    fails.push_back(format("%.0f sessions with an echo mismatch",
                           static_cast<double>(all.echo_bad)));
  if (!seg.server.conserved)
    fails.push_back("SocketServerFleet books not conserved");
  if (failed_ratio(all) > 0)
    fails.push_back(format("failed_ratio %.6f > 0 on loopback",
                           failed_ratio(all)));
  // 1 full + (n-1) resumed per transaction: n*resumed == (n-1)*completed,
  // up to one handshake per counted retry.
  const double n = w.sessions_per_txn;
  const double off = std::fabs(n * static_cast<double>(seg.server.resumed) -
                               (n - 1) * static_cast<double>(
                                             seg.server.handshakes_completed));
  if (off > n * static_cast<double>(all.extra_attempts))
    fails.push_back(format(
        "server.resumed_share %.6f is not (n-1)/n = %.6f beyond %.0f "
        "counted retries",
        ratio(static_cast<double>(seg.server.resumed),
              static_cast<double>(seg.server.handshakes_completed)),
        (n - 1) / n, static_cast<double>(all.extra_attempts)));
  if (all.suite_mismatches != 0)
    fails.push_back(format("%.0f sessions negotiated another suite",
                           static_cast<double>(all.suite_mismatches)));
  if (all.hellos < all.completed)
    fails.push_back("a completed session's ServerHello was not observed");
  return fails;
}

double loadgen_util(const Segment& seg) {
  return ratio(seg.gen.gen_cpu_s, seg.gen.window_s());
}

void note_generator(Outcome& out, double util) {
  out.notes.push_back(format("loadgen.cpu_util %.4f ratio", util));
  if (util > kGeneratorBound)
    out.notes.push_back(format(
        "GENERATOR-BOUND: loadgen.cpu_util %.4f > %.2f, so sessions_per_s "
        "measures the generator, not the server",
        util, kGeneratorBound));
}

// ---- the two modes --------------------------------------------------------

/// Mean of the middle half of `v` (all of it when it has under 4 values):
/// host stalls confined to a quarter of the bins can neither lower nor
/// raise it.
double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// Generator results pooled over the segments of one run.
struct Pool {
  Tally window;
  Tally all;
  double window_s = 0;
  double gen_cpu_s = 0;
  std::vector<double> txn_ms;
  std::vector<double> handshake_ms;
  // Per rate bin: each window cut into equal bins of about kBinS.
  std::vector<double> bin_sessions_per_s;
  std::vector<double> bin_mbps;

  void add(const GenResult& g) {
    window += g.window;
    all += g.all;
    window_s += g.window_s();
    gen_cpu_s += g.gen_cpu_s;
    txn_ms.insert(txn_ms.end(), g.txn_ms.begin(), g.txn_ms.end());
    handshake_ms.insert(handshake_ms.end(), g.handshake_ms.begin(),
                        g.handshake_ms.end());

    const auto bins = static_cast<std::size_t>(
        std::max(1.0, std::round(g.window_s() / kBinS)));
    const double width_ns = static_cast<double>(g.t1_ns - g.t0_ns) /
                            static_cast<double>(bins);
    std::vector<double> sessions(bins, 0), bytes(bins, 0);
    for (const Finish& f : g.finishes) {
      const auto k = std::min(
          bins - 1, static_cast<std::size_t>(
                        static_cast<double>(f.at_ns - g.t0_ns) / width_ns));
      sessions[k] += static_cast<double>(f.sessions);
      bytes[k] += static_cast<double>(f.bytes_echoed);
    }
    for (std::size_t k = 0; k < bins; ++k) {
      bin_sessions_per_s.push_back(sessions[k] / (width_ns / 1e9));
      bin_mbps.push_back(bytes[k] * 8 / (width_ns / 1e9) / 1e6);
    }
  }
};

/// `segments` fresh worlds, each set up (timed for setup_s) and then
/// measured for seconds/segments; the samples are pooled. Short-lived
/// shards keep the server's never-pruned connection table, and the time
/// flush_pipeline spends walking it, the same size in every segment.
Outcome measure_end_to_end(const Workload& w, std::uint64_t seed,
                           double warmup_s, double seconds, int segments) {
  Outcome out;
  Pool pool;
  std::vector<double> setup_s;
  for (int k = 0; k < segments; ++k) {
    const std::int64_t start = now_ns();
    std::unique_ptr<World> world = build_world(w, seed, false);
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    const Segment seg = run_segment(*world, warmup_s, seconds / segments);
    world.reset();
    for (const std::string& f : check_gates(w, seg))
      out.gate_failures.push_back(format("segment %.0f: ", k) + f);
    pool.add(seg.gen);
  }

  out.attempted = pool.all.sessions;
  out.failed = pool.all.failed + pool.all.echo_bad;
  auto m = [&out](const char* name, double value) {
    add(out.metrics, kEndToEnd, name, value);
  };
  m("sessions_per_s", interquartile_mean(pool.bin_sessions_per_s));
  m("txn_p50_ms", analysis::percentile(pool.txn_ms, 0.50));
  m("handshake_p50_ms", analysis::percentile(pool.handshake_ms, 0.50));
  m("record_mbps", interquartile_mean(pool.bin_mbps));
  m("setup_s", analysis::percentile(setup_s, 0.5));
  m("peak_rss_mb", proc_status_mib("VmHWM"));
  m("txn_p99_ms", analysis::percentile(pool.txn_ms, 0.99));
  m("handshake_p99_ms", analysis::percentile(pool.handshake_ms, 0.99));
  m("failed_ratio", failed_ratio(pool.all));

  out.notes.push_back(format(
      "samples: %.0f transactions, %.0f sessions in %.3f s of windows",
      static_cast<double>(pool.window.txns),
      static_cast<double>(pool.window.completed), pool.window_s));
  out.notes.push_back(format(
      "client link: %.0f retransmits of %.0f segments",
      static_cast<double>(pool.all.link_retransmits),
      static_cast<double>(pool.all.link_segments)));
  out.notes.push_back(format(
      "%.0f rate bins; over all windows %.2f sessions/s, %.4f Mbit/s",
      static_cast<double>(pool.bin_mbps.size()),
      static_cast<double>(pool.window.completed) / pool.window_s,
      static_cast<double>(pool.window.bytes_echoed) * 8 / pool.window_s /
          1e6));
  note_generator(out, ratio(pool.gen_cpu_s, pool.window_s));
  return out;
}

Outcome measure_per_layer(const Workload& w, std::uint64_t seed,
                          double warmup_s, double seconds,
                          const std::string& trace_path) {
  // Half the measured time untraced (the overhead baseline and the RSS
  // growth), half traced, so a traced run costs what an untraced one does.
  std::unique_ptr<World> world = build_world(w, seed, false);
  const Segment plain = run_segment(*world, warmup_s, seconds / 2);
  world.reset();
  world = build_world(w, seed, true);
  const Segment traced = run_segment(*world, warmup_s, seconds / 2);
  const Calibration cal = calibrate(w, world->server_cfg, world->client_cfg);
  world.reset();

  Outcome out;
  out.gate_failures = check_gates(w, plain);
  for (const std::string& f : check_gates(w, traced))
    out.gate_failures.push_back("traced run: " + f);
  out.attempted = plain.gen.all.sessions + traced.gen.all.sessions;
  out.failed = plain.gen.all.failed + plain.gen.all.echo_bad +
               traced.gen.all.failed + traced.gen.all.echo_bad;

  const SpanSummary sum =
      summarize(traced.spans, traced.gen.t0_ns, traced.gen.t1_ns);
  const double sessions_w = static_cast<double>(traced.gen.window.completed);
  const ServerTotals& srv = traced.server;
  const double sessions = static_cast<double>(srv.handshakes_completed);
  const double d_cpu = static_cast<double>(traced.clocks_t1.cpu_ns -
                                           traced.clocks_t0.cpu_ns);
  const double d_wall = static_cast<double>(traced.clocks_t1.wall_ns -
                                            traced.clocks_t0.wall_ns);
  const double d_poll_cpu = static_cast<double>(
      traced.clocks_t1.poll_cpu_ns - traced.clocks_t0.poll_cpu_ns);
  const double d_poll_wall = static_cast<double>(
      traced.clocks_t1.poll_wall_ns - traced.clocks_t0.poll_wall_ns);
  const double plain_rate = static_cast<double>(plain.gen.window.completed) /
                            plain.gen.window_s();
  const double traced_rate = sessions_w / traced.gen.window_s();
  const auto& sock = srv.sockets;
  const Tally& cl = traced.gen.all;

  auto m = [&out](const char* name, double value) {
    add(out.metrics, kPerLayer, name, value);
  };
  m("net.poll_cpu_us_per_session", ratio(d_poll_cpu / 1e3, sessions_w));
  m("net.poll_wait_share", ratio(d_poll_wall - d_poll_cpu, d_wall));
  m("net.tx_send_us_per_frame",
    ratio(sum.tx_us, static_cast<double>(sum.tx_frames)));
  m("net.frames_per_session",
    ratio(static_cast<double>(sock.frames_sent + sock.frames_received),
          sessions));
  m("net.syscalls_per_session",
    ratio(static_cast<double>(sock.writev_calls + sock.readv_calls),
          sessions));
  m("net.wire_bytes_per_payload_byte",
    ratio(static_cast<double>(sock.bytes_sent + sock.bytes_received),
          static_cast<double>(cl.bytes_echoed)));
  m("net.link_acks_per_session", ratio(static_cast<double>(cl.link_acks),
                                       static_cast<double>(cl.completed)));
  m("net.link_retransmit_ratio",
    ratio(static_cast<double>(cl.link_retransmits),
          static_cast<double>(cl.link_segments)));
  m("net.arena_alloc_ratio", ratio(static_cast<double>(srv.arena_allocations),
                                   static_cast<double>(srv.arena_reserved)));
  m("server.rx_handler_us_per_session", ratio(sum.rx_self_us, sessions_w));
  m("server.rx_handler_us_p99",
    analysis::percentile(sum.rx_self_frame_us, 0.99));
  m("server.reply_wait_us_p50", analysis::percentile(sum.reply_wait_us, 0.50));
  m("server.reply_wait_us_p99", analysis::percentile(sum.reply_wait_us, 0.99));
  m("server.shard_cpu_util", ratio(d_cpu, d_wall));
  m("server.cache_lookup_us",
    ratio(sum.lookup_us, static_cast<double>(sum.lookups)));
  m("server.cache_hit_ratio", ratio(static_cast<double>(sum.hits),
                                    static_cast<double>(sum.lookups)));
  m("server.resumed_share", ratio(static_cast<double>(srv.resumed), sessions));
  m("server.retained_kb_per_session",
    ratio((plain.rss_end_mib - plain.rss_t0_mib) * 1024,
          static_cast<double>(plain.gen.window.completed)));
  m("protocol.server_handshake_full_us", cal.server_handshake_full_us);
  m("protocol.server_handshake_resumed_us", cal.server_handshake_resumed_us);
  m("protocol.record_open_aes_us_per_kib", cal.record_open_aes_us_per_kib);
  m("protocol.record_open_3des_us_per_kib", cal.record_open_3des_us_per_kib);
  m("crypto.rsa_private_us", cal.rsa_private_us);
  m("crypto.rsa_private_ops_per_session",
    ratio(static_cast<double>(srv.rsa_private_ops), sessions));
  m("engine.pipeline_batch_us", cal.pipeline_batch_us);
  m("ticket.seal_us", cal.ticket_seal_us);
  m("ticket.open_us", cal.ticket_open_us);
  m("ticket.ops_per_session",
    ratio(static_cast<double>(srv.tickets_issued + srv.ticket_resumptions),
          sessions));
  m("loadgen.cpu_util", loadgen_util(plain));
  // The echo seal runs in the server's flush timer, outside every
  // decorated call: price it per job from the calibration.
  const double priced_us =
      static_cast<double>(srv.bulk_messages) * cal.pipeline_batch_us;
  m("trace.coverage",
    ratio(sum.covered_us + priced_us,
          static_cast<double>(traced.clocks_end.cpu_ns) / 1e3));
  m("trace.overhead", ratio(traced_rate, plain_rate));

  note_generator(out, loadgen_util(plain));
  out.notes.push_back(format(
      "untraced %.1f sessions/s, traced %.1f sessions/s; %.0f reply waits",
      plain_rate, traced_rate, static_cast<double>(sum.reply_wait_us.size())));
  if (!trace_path.empty()) {
    if (write_trace(trace_path, traced.spans, traced.gen))
      out.notes.push_back("spans written to " + trace_path);
    else
      out.notes.push_back("could not write spans to " + trace_path);
  }
  return out;
}

// ---- output ---------------------------------------------------------------

void print_outcome(const Outcome& out) {
  for (const Metric& m : out.metrics)
    std::printf("  %-38s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& note : out.notes) std::printf("  %s\n", note.c_str());
  for (const std::string& f : out.gate_failures)
    std::printf("GATE FAILED: %s\n", f.c_str());
  const bool correct = out.gate_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  if (correct) {
    const char* sep = "";
    for (const Metric& m : out.metrics) {
      if (!m.json) continue;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                  m.name.c_str(), m.value, m.unit.c_str());
      sep = ", ";
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---- self-test ------------------------------------------------------------

template <std::size_t N>
bool check_emitted(const Outcome& out, const MetricSpec (&table)[N],
                   const std::string& where) {
  bool ok = true;
  for (const MetricSpec& spec : table) {
    bool found = false;
    for (const Metric& m : out.metrics)
      if (m.name == spec.name && m.unit == spec.unit && std::isfinite(m.value))
        found = true;
    if (!found) {
      std::printf("self-test: %s: %s missing, unit-less or not finite\n",
                  where.c_str(), spec.name);
      ok = false;
    }
  }
  return ok;
}

int self_test() {
  bool ok = true;
  for (const Workload& w : workloads()) {
    const Outcome e2e = measure_end_to_end(w, 1, 0.1, 0.5, 1);
    ok = check_emitted(e2e, kEndToEnd, w.name + " end-to-end") && ok;
    const Outcome layer = measure_per_layer(w, 1, 0.1, 0.5, "");
    ok = check_emitted(layer, kPerLayer, w.name + " per-layer") && ok;
    for (const Metric& m : layer.metrics)
      if (m.name == "trace.coverage")
        std::printf("self-test: %s trace.coverage %.4f\n", w.name.c_str(),
                    m.value);
    for (const auto& f : e2e.gate_failures)
      std::printf("self-test: %s gate: %s\n", w.name.c_str(), f.c_str());
    for (const auto& f : layer.gate_failures)
      std::printf("self-test: %s gate: %s\n", w.name.c_str(), f.c_str());
    ok = ok && e2e.gate_failures.empty() && layer.gate_failures.empty();
  }

  // A client that trusts another root must fail its handshakes, and the
  // failed_ratio gate must say so.
  crypto::HmacDrbg rng(0xBAD);
  const protocol::CertificateAuthority stranger(
      "StrangerRoot", crypto::rsa_generate(rng, 512), 0, bench::kPkiNow * 2);
  const Workload& w = workloads().front();
  std::unique_ptr<World> world = build_world(w, 1, false, &stranger.root());
  const Segment seg = run_segment(*world, 0, 0.2);
  world.reset();
  bool tripped = false;
  for (const std::string& f : check_gates(w, seg))
    if (f.find("failed_ratio") != std::string::npos) tripped = true;
  std::printf("self-test: mismatched trusted root %s the failed_ratio gate "
              "(%.0f of %.0f sessions failed)\n",
              tripped ? "trips" : "does NOT trip",
              static_cast<double>(seg.gen.all.failed),
              static_cast<double>(seg.gen.all.sessions));
  ok = ok && tripped;
  std::printf("self-test: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: sockbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\n"
               "       sockbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self = false;
  std::string trace_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      self = true;
    } else if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-dir" && has_value) {
      trace_dir = argv[++i];
    } else {
      return usage();
    }
  }
  const Workload* w = find_workload(workload_name);
  if (!self && (w == nullptr || !(seconds > 0)))
    return usage();

  if (self)
    std::printf("# sockbench --self-test");
  else
    std::printf("# sockbench %s seed=%llu seconds=%g trace=%d", w->name.c_str(),
                static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0);
  std::printf(" nproc=%u build=%s\n# crypto: %s\n",
              std::thread::hardware_concurrency(), SOCKBENCH_BUILD_TYPE,
              crypto::dispatch::capabilities_summary().c_str());
  if (!net::sockets_available()) {
    std::printf("SKIPPED: loopback TCP is unavailable here; nothing was "
                "measured\n");
    return 3;
  }

  try {
    if (self) return self_test();
    std::string trace_path;
    if (trace && !trace_dir.empty()) {
      std::filesystem::create_directories(trace_dir);
      trace_path = trace_dir + "/" + w->name + "-seed" + std::to_string(seed) +
                   ".tsv";
    }
    const Outcome out =
        trace ? measure_per_layer(*w, seed, kWarmupS, seconds, trace_path)
              : measure_end_to_end(*w, seed, kWarmupS, seconds, kSegments);
    print_outcome(out);
    return out.gate_failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::printf("ERROR: %s\n", e.what());
    return 1;
  }
}
