// Experiments E18-E26: the serving stack under seeded client fleets.
//
// Most of the bench is a table of LoadGenerator cells (a base fleet plus
// edits), grouped into sweeps. run_group times each cell, prices its
// served load on the StrongARM SA-1100 (LoadReport::gap, which carries
// the cell's own tier, plus the E19 ISA-dispatch tier), prints one row
// per cell and, where the cells replay one fleet, checks that they fold
// the same transcript digest. Rates are simulated time unless named
// _wall. Three experiments are not LoadGenerator cells: the E20
// handshake flood and the E25 shard crash are chaos campaigns, and E26
// replays a sim cell over loopback TCP with two bench_socket_load_gen
// child processes. The exit status is 0 only if every gate holds.
//
// Usage: bench_server_load [json-output-path]  (default BENCH_server.json)
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_guard.hpp"
#include "server_pki.hpp"
#include "mapsec/analysis/table.hpp"
#include "mapsec/chaos/campaign.hpp"
#include "mapsec/crypto/bytes.hpp"
#include "mapsec/platform/processor.hpp"
#include "mapsec/server/load_gen.hpp"
#include "mapsec/server/socket_fleet.hpp"

using namespace mapsec;

namespace {

using bench::Pki;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string short_digest(const crypto::Bytes& digest) {
  const std::size_t n = std::min<std::size_t>(8, digest.size());
  return crypto::to_hex(crypto::ConstBytes(digest).first(n));
}

/// The JSON report as a tree of `a/b/c` leaf paths, each object keeping
/// its keys in first-write order. Numbers keep the precision each field
/// has always been recorded at.
class JsonReport {
 public:
  void num(const std::string& path, double v, int digits) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", digits, v);
    node(path).value = buf;
  }
  void flag(const std::string& path, bool v) {
    node(path).value = v ? "true" : "false";
  }
  void text(const std::string& path, const std::string& v) {
    node(path).value = "\"" + v + "\"";
  }

  bool write(const std::string& file) const {
    FILE* f = std::fopen(file.c_str(), "w");
    if (!f) return false;
    write_object(f, nodes_[0], 0);
    std::fputc('\n', f);
    return std::fclose(f) == 0;
  }

 private:
  struct Node {
    std::string value;  // formatted leaf; objects have children instead
    std::vector<std::pair<std::string, std::size_t>> children;
  };

  Node& node(const std::string& path) {
    std::size_t at = 0;
    for (std::size_t pos = 0;;) {
      const std::size_t slash = path.find('/', pos);
      const std::string key = path.substr(pos, slash - pos);
      std::size_t next = 0;
      for (const auto& [k, i] : nodes_[at].children)
        if (k == key) next = i;
      if (next == 0) {
        next = nodes_.size();
        nodes_[at].children.emplace_back(key, next);
        nodes_.emplace_back();
      }
      at = next;
      if (slash == std::string::npos) return nodes_[at];
      pos = slash + 1;
    }
  }

  void write_object(FILE* f, const Node& n, int depth) const {
    std::fputc('{', f);
    for (std::size_t c = 0; c < n.children.size(); ++c) {
      const auto& [key, i] = n.children[c];
      std::fprintf(f, "%s\n%*s\"%s\": ", c ? "," : "", 2 * depth + 2, "",
                   key.c_str());
      if (nodes_[i].children.empty())
        std::fputs(nodes_[i].value.c_str(), f);
      else
        write_object(f, nodes_[i], depth + 1);
    }
    std::fprintf(f, "\n%*s}", 2 * depth, "");
  }

  std::vector<Node> nodes_ = std::vector<Node>(1);  // [0] = root
};

// ---- the LoadGenerator table ----------------------------------------------

struct Cell {
  std::string key;  // row label and JSON key
  server::LoadConfig load;
  server::ServerConfig server;
  server::ClientConfig client;
  server::BoundedSessionCache::Config cache;
};

/// The base cell: `clients` bench-PKI clients over 2% loss / 5% reorder,
/// with `edit` applied.
Cell make_cell(const Pki& pki, std::string key, std::size_t clients,
               const std::function<void(Cell&)>& edit = {}) {
  Cell c{std::move(key), {}, bench::pki_server_config(pki),
         bench::pki_client_config(pki), {}};
  c.load.num_clients = clients;
  c.load.channel.loss_rate = 0.02;
  c.load.channel.reorder_rate = 0.05;
  if (edit) edit(c);
  return c;
}

struct Run {
  server::LoadReport report;
  /// The same served load on the ISA-dispatch tier (E19).
  platform::ServingGapReport isa;
  double wall_ms = 0;
};

struct Column {
  const char* header;
  const char* json;  // key in the group's JSON block; nullptr = print only
  int digits;
  double (*get)(const Run&);
};

struct Group {
  const char* title;
  const char* json;  // JSON block of per-cell objects; nullptr = none
  bool one_fleet;    // every cell must fold the same fleet digest
  std::vector<Column> columns;
  std::vector<Cell> cells;
};

struct GroupRuns {
  std::vector<Run> runs;  // in cell order
  bool digests_match = true;
};

GroupRuns run_group(const Group& g, JsonReport& json) {
  std::printf("\n-- %s --\n", g.title);
  std::vector<std::string> headers{"cell"};
  for (const Column& c : g.columns) headers.push_back(c.header);
  headers.insert(headers.end(), {"wall ms", "fleet digest"});
  analysis::Table tab(headers);
  GroupRuns out;
  for (const Cell& cell : g.cells) {
    const auto t0 = std::chrono::steady_clock::now();
    Run run;
    run.report = server::LoadGenerator(cell.load, cell.server, cell.client,
                                       cell.cache)
                     .run();
    run.wall_ms = ms_since(t0);
    const server::LoadReport& r = run.report;
    run.isa = platform::serving_gap(
        platform::WorkloadModel::paper_calibrated(),
        platform::Processor::strongarm_sa1100(),
        server::served_load(r.server, r.sessions_completed, r.sim_duration_s),
        {.accel = platform::AccelProfile::isa_dispatch()});
    if (g.one_fleet && !out.runs.empty())
      out.digests_match = out.digests_match &&
                          r.fleet_digest == out.runs[0].report.fleet_digest;

    std::vector<std::string> row{cell.key};
    for (const Column& c : g.columns) {
      row.push_back(analysis::fmt(c.get(run), c.digits));
      if (g.json && c.json)
        json.num(std::string(g.json) + "/" + cell.key + "/" + c.json,
                 c.get(run), c.digits);
    }
    row.push_back(analysis::fmt(run.wall_ms, 0));
    row.push_back(short_digest(r.fleet_digest));
    tab.add_row(std::move(row));
    out.runs.push_back(std::move(run));
  }
  std::fputs(tab.render().c_str(), stdout);
  if (g.one_fleet)
    std::printf("digests %s across the group\n",
                out.digests_match ? "IDENTICAL" : "DIVERGED");
  return out;
}

const Column kFullRate{"full hs/s", "full_handshakes_per_s", 3,
                       [](const Run& r) {
                         return r.report.full_handshakes_per_s;
                       }};
const Column kRecord{"record Mbit/s", "record_mbps", 3, [](const Run& r) {
                       return r.report.record_mbps;
                     }};

// ---- E20: handshake flood (Section 3.3 battery-exhaustion DoS) ------------

/// One chaos campaign: a 12-client honest fleet plus (with `flood`) a
/// 200-connection full-handshake flood that drives each probe through the
/// ClientKeyExchange, so every admitted attack connection costs the
/// server an RSA private operation. `defended` toggles the admission
/// valve and the degraded (resumption-only) watermarks.
chaos::CampaignConfig flood_campaign(const Pki& pki, bool defended,
                                     bool flood) {
  chaos::CampaignConfig cfg;
  cfg.seed = 0xF100D;
  cfg.honest_clients = 12;
  cfg.mean_interarrival_us = 3'000;
  cfg.server = bench::pki_server_config(pki);
  cfg.client = bench::pki_client_config(pki);
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
  /// attacker ran up.
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
  out.attack_mj_per_byte = ratio(out.attack_energy_mj,
                                 static_cast<double>(out.report.attack_bytes));
  out.degraded_time_share =
      ratio(out.report.degraded_time_us, out.report.sim_duration_s * 1e6);
  return out;
}

/// Undefended vs defended flood; the two runs differ only in the
/// admission valve + degraded watermarks, so the energy delta over the
/// flood-free baseline is the attacker's battery bill.
bool flood_defense(const Pki& pki, JsonReport& json) {
  const double baseline_energy_mj =
      chaos::CampaignRunner(flood_campaign(pki, false, false))
          .run()
          .handshake_energy_mj;
  const FloodOutcome undefended =
      run_flood(flood_campaign(pki, false, true), baseline_energy_mj);
  const FloodOutcome defended =
      run_flood(flood_campaign(pki, true, true), baseline_energy_mj);

  std::puts("\n-- E20: handshake flood, 40 attackers x 5 connections through "
            "the ClientKeyExchange\n   (12 honest clients riding along; "
            "energy beyond the flood-free baseline) --");
  json.num("flood/baseline_handshake_energy_mj", baseline_energy_mj, 2);
  analysis::Table tab({"metric", "undefended", "defended"});
  auto field = [&](const char* key, int digits,
                   double (*get)(const FloodOutcome&)) {
    tab.add_row({key, analysis::fmt(get(undefended), digits),
                 analysis::fmt(get(defended), digits)});
    json.num(std::string("flood/undefended/") + key, get(undefended),
             digits);
    json.num(std::string("flood/defended/") + key, get(defended), digits);
  };
  using O = const FloodOutcome&;
  field("attack_connections", 0, [](O o) {
    return static_cast<double>(o.report.attack_connections);
  });
  field("attack_bytes", 0,
        [](O o) { return static_cast<double>(o.report.attack_bytes); });
  field("attack_refused", 0,
        [](O o) { return static_cast<double>(o.report.attack_refused); });
  field("degraded_refusals", 0, [](O o) {
    return static_cast<double>(o.report.server.degraded_refusals);
  });
  field("rsa_private_ops", 0, [](O o) {
    return static_cast<double>(o.report.server.handshake_rsa_private_ops);
  });
  field("degraded_time_share", 4, [](O o) { return o.degraded_time_share; });
  field("attack_energy_mj", 2, [](O o) { return o.attack_energy_mj; });
  field("attack_mj_per_byte", 5, [](O o) { return o.attack_mj_per_byte; });
  field("honest_sessions_completed", 0, [](O o) {
    return static_cast<double>(o.report.sessions_completed);
  });
  field("honest_sessions_attempted", 0, [](O o) {
    return static_cast<double>(o.report.sessions_attempted);
  });
  std::fputs(tab.render().c_str(), stdout);

  const bool holds =
      defended.attack_energy_mj < undefended.attack_energy_mj &&
      defended.report.attack_refused > 0 &&
      defended.report.sessions_completed ==
          defended.report.sessions_attempted;
  std::printf("defense %s: %.1f mJ -> %.1f mJ attack bill (%.1fx cheaper), "
              "honest fleet %zu/%zu\n",
              holds ? "HOLDS" : "BROKEN", undefended.attack_energy_mj,
              defended.attack_energy_mj,
              ratio(undefended.attack_energy_mj, defended.attack_energy_mj),
              defended.report.sessions_completed,
              defended.report.sessions_attempted);
  return holds;
}

/// Session-cache index micro-benchmark: the hashed index
/// (BoundedSessionCache) vs an ordered tree at the 10k-entry scale a busy
/// server holds. Uniformly random 16-byte ids are the worst case for a
/// tree (every probe is O(log n) full byte-compares). Wall-clock.
std::pair<double, double> cache_index() {
  constexpr std::size_t kEntries = 10'000;
  constexpr std::size_t kLookups = 1'000'000;
  net::EventQueue clock;
  server::BoundedSessionCache hashed(clock,
                                     {.capacity = kEntries, .ttl_us = 0});
  std::map<crypto::Bytes, protocol::SessionCache::Entry> tree;
  crypto::HmacDrbg rng(0x5E55CACE);
  std::vector<crypto::Bytes> ids;
  ids.reserve(kEntries);
  for (std::size_t i = 0; i < kEntries; ++i) {
    crypto::Bytes id = rng.bytes(16);
    protocol::SessionCache::Entry e;
    e.master_secret = rng.bytes(48);
    hashed.store(id, e);
    tree.emplace(id, std::move(e));
    ids.push_back(std::move(id));
  }
  std::size_t found = 0;  // 48271 is coprime to 10'000: full cycle
  const auto c0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kLookups; ++i)
    found += hashed.lookup(ids[(i * 48271u) % kEntries]) != nullptr;
  const double hashed_ns = ms_since(c0) * 1e6 / kLookups;
  const auto c1 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kLookups; ++i)
    found += tree.find(ids[(i * 48271u) % kEntries]) != tree.end();
  const double tree_ns = ms_since(c1) * 1e6 / kLookups;
  std::printf("\n-- session-cache index: %zu lookups over %zu entries --\n"
              "hashed %.0f ns/lookup vs ordered tree %.0f ns/lookup "
              "(%.1fx); %zu found\n",
              kLookups, kEntries, hashed_ns, tree_ns,
              ratio(tree_ns, hashed_ns), found);
  return {hashed_ns, tree_ns};
}

// ---- E25: supervised shard failure at fleet scale ---------------------------

/// A 150-client x 4-session ticket-mode fleet on 4 shards. The crash lands
/// after every client's first session (arrivals span ~300 ms), so each
/// victim holds a ticket: reconnect to the rendezvous survivor, resume by
/// ticket, zero server cache bytes and zero pk ops.
bool failover_slo(const Pki& pki, JsonReport& json) {
  std::puts("\n-- E25: supervised failover (150 clients x 4 sessions on 4 "
            "shards, tickets on;\n   shard 1 hard-crashed mid-flood, warm "
            "rejoin after 500 ms) --");
  constexpr double kBlackoutBudgetMs = 250.0;
  auto campaign = [&](bool crash) {
    chaos::CampaignConfig cfg;
    cfg.seed = 0xE25;
    cfg.shards = 4;
    cfg.honest_clients = 150;
    cfg.mean_interarrival_us = 2'000;
    cfg.server = bench::pki_server_config(pki);
    cfg.server.ticket.enabled = true;
    cfg.client = bench::pki_client_config(pki);
    cfg.client.sessions = 4;
    cfg.client.use_session_tickets = true;
    cfg.client.retry_budget = 6;
    cfg.cache.capacity = 0;  // stateless: nothing for the crash to lose
    if (crash)
      cfg.faults.push_back(chaos::ShardCrash{
          .at_us = 400'000, .shard = 1, .repair_us = 500'000});
    return chaos::CampaignRunner(cfg).run();
  };
  const auto t0 = std::chrono::steady_clock::now();
  const chaos::CampaignReport calm = campaign(false);
  const chaos::CampaignReport fo = campaign(true);
  const chaos::CampaignReport rerun = campaign(true);
  const double wall_ms = ms_since(t0);
  const bool digest_rerun = fo.fleet_digest == rerun.fleet_digest;
  const bool digest_calm = fo.fleet_digest == calm.fleet_digest;

  // The outage priced against the calm run's served rates: the burst as
  // ticket resumptions vs the full-RSA counterfactual.
  const platform::ServingGapReport gap = platform::serving_gap(
      platform::WorkloadModel::paper_calibrated(),
      platform::Processor::strongarm_sa1100(),
      server::served_load(calm.server, calm.sessions_completed,
                          calm.sim_duration_s),
      {.shards = 4,
       .slice_us = 1'000,
       .reconnect_sessions = static_cast<double>(fo.client_reconnects),
       .blackout_s = std::max(fo.blackout_p99_ms, 1.0) / 1000.0});

  analysis::Table tab({"metric", "value"});
  tab.add_row({"honest sessions lost (gate == 0)",
               std::to_string(fo.sessions_failed)});
  tab.add_row({"sessions completed / attempted",
               std::to_string(fo.sessions_completed) + " / " +
                   std::to_string(fo.sessions_attempted)});
  tab.add_row({"connections killed by the crash",
               std::to_string(fo.connections_killed)});
  tab.add_row({"clients migrated / reconnects / ticket resumes",
               std::to_string(fo.clients_migrated) + " / " +
                   std::to_string(fo.client_reconnects) + " / " +
                   std::to_string(fo.failover_resumes)});
  tab.add_row({"client blackout p50 / p99 ms (budget " +
                   analysis::fmt(kBlackoutBudgetMs, 0) + ")",
               analysis::fmt(fo.blackout_p50_ms, 1) + " / " +
                   analysis::fmt(fo.blackout_p99_ms, 1)});
  tab.add_row({"digest vs rerun / vs undisturbed",
               std::string(digest_rerun ? "IDENTICAL" : "DIVERGED") +
                   " / " + (digest_calm ? "IDENTICAL" : "DIVERGED")});
  tab.add_row({"degraded survivor demand (MIPS)",
               analysis::fmt(gap.degraded_required_mips, 1) +
                   " (steady per-shard " +
                   analysis::fmt(gap.per_shard_required_mips, 1) + ")"});
  tab.add_row({"crash energy, tickets vs full RSA (mJ)",
               analysis::fmt(gap.crash_energy_mj, 2) + " vs " +
                   analysis::fmt(gap.crash_energy_full_mj, 2)});
  tab.add_row({"ticket failover saving",
               analysis::fmt(gap.ticket_saving_ratio, 1) + "x"});
  tab.add_row({"wall clock, 3 campaigns (ms)", analysis::fmt(wall_ms, 0)});
  std::fputs(tab.render().c_str(), stdout);

  const bool ok = fo.invariants_ok() && calm.invariants_ok() &&
                  fo.sessions_failed == 0 &&
                  fo.sessions_completed == fo.sessions_attempted &&
                  fo.shard_crashes == 1 && fo.shard_rejoins == 1 &&
                  fo.client_reconnects > 0 &&
                  fo.failover_resumes == fo.client_reconnects &&
                  fo.blackout_p99_ms <= kBlackoutBudgetMs && digest_rerun &&
                  digest_calm && gap.ticket_saving_ratio > 1.0;
  std::printf("failover SLO %s: %zu reconnects all resumed by ticket, "
              "0 sessions lost, digests %s\n",
              ok ? "HOLDS" : "BROKEN", fo.client_reconnects,
              digest_rerun && digest_calm ? "pinned" : "DIVERGED");
  if (!fo.invariants_ok())
    std::printf("campaign invariants: %s\n", fo.invariant_failures.c_str());

  // Structural gates (ci/bench_compare.py check_failover_slo), not
  // baseline-compared: no field carries a _per_s/_mbps suffix.
  const std::string b = "failover_slo/";
  json.num(b + "shards", 4, 0);
  json.num(b + "fleet_clients", 150, 0);
  json.num(b + "sessions_each", 4, 0);
  json.num(b + "sessions_lost", static_cast<double>(fo.sessions_failed), 0);
  json.num(b + "sessions_completed",
           static_cast<double>(fo.sessions_completed), 0);
  json.num(b + "sessions_attempted",
           static_cast<double>(fo.sessions_attempted), 0);
  json.num(b + "connections_killed",
           static_cast<double>(fo.connections_killed), 0);
  json.num(b + "clients_migrated", static_cast<double>(fo.clients_migrated),
           0);
  json.num(b + "client_reconnects",
           static_cast<double>(fo.client_reconnects), 0);
  json.num(b + "failover_resumes", static_cast<double>(fo.failover_resumes),
           0);
  json.num(b + "blackout_p50_ms", fo.blackout_p50_ms, 3);
  json.num(b + "blackout_p99_ms", fo.blackout_p99_ms, 3);
  json.num(b + "blackout_budget_ms", kBlackoutBudgetMs, 1);
  json.flag(b + "digest_match_rerun", digest_rerun);
  json.flag(b + "digest_match_undisturbed", digest_calm);
  json.num(b + "missed_heartbeats", static_cast<double>(fo.missed_heartbeats),
           0);
  json.num(b + "degraded_required_mips", gap.degraded_required_mips, 2);
  json.num(b + "crash_energy_mj", gap.crash_energy_mj, 3);
  json.num(b + "crash_energy_full_mj", gap.crash_energy_full_mj, 3);
  json.num(b + "ticket_saving_ratio", gap.ticket_saving_ratio, 2);
  return ok;
}

// ---- E26: the real-socket bearer at wall-clock speed ------------------------

/// Parsed key=value output of one bench_socket_load_gen child process.
struct ChildOutcome {
  std::map<std::string, std::string> kv;
  bool ok = false;

  std::string str(const char* key) const {
    auto it = kv.find(key);
    return it == kv.end() ? std::string() : it->second;
  }
  std::uint64_t num(const char* key) const {
    return std::strtoull(str(key).c_str(), nullptr, 10);
  }
  double real(const char* key) const { return std::atof(str(key).c_str()); }
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

/// A 2-shard SocketServerFleet on loopback TCP, driven by two child
/// processes replaying the `ref` cell's fleet (same seeds, arrivals and
/// shard routing). Gates: session outcomes, refolded fleet digest and
/// conservation books equal to the sim run, and a record path that
/// allocates nothing past its pre-reserve. Wall-clock rates are
/// informational (_wall names). Skipped visibly without loopback TCP.
bool socket_bearer(const Pki& pki, JsonReport& json) {
  std::puts("\n-- E26: real-socket bearer (2 shards on loopback TCP, "
            "2 processes x 30 clients\n   x 2 sessions, outcomes vs the "
            "sim run for the same seed) --");
  constexpr std::size_t kClients = 60;
  constexpr std::uint64_t kSeed = 0xE26;
  const std::string b = "socket_wallclock/";
  if (!net::sockets_available()) {
    std::puts("SKIP: loopback TCP unavailable in this sandbox — outcome "
              "gates pass vacuously");
    json.flag(b + "skipped", true);
    return true;
  }
  const Cell cell = make_cell(pki, "sim_reference", kClients, [](Cell& c) {
    c.load.channel = {};  // loss-free
    c.load.seed = kSeed;
    c.client.sessions = 2;
    c.cache.capacity = 128;  // >= clients: loss-free resumption mix
  });
  const server::LoadReport ref =
      run_group({"E26 sim reference", nullptr, false, {kFullRate}, {cell}},
                json)
          .runs[0]
          .report;

  server::SocketFleetConfig fleet_cfg;
  fleet_cfg.shards = 2;
  fleet_cfg.seed = kSeed;
  fleet_cfg.reserve_slabs_per_shard = 256;
  server::SocketServerFleet fleet(fleet_cfg, cell.server, cell.cache);
  if (!fleet.ok()) {
    std::puts("SKIP: could not bind loopback listeners");
    json.flag(b + "skipped", true);
    return true;
  }
  fleet.start();
  std::string ports;
  for (std::uint16_t port : fleet.ports())
    ports += (ports.empty() ? "" : ",") + std::to_string(port);
  const std::string base = self_dir() + "/bench_socket_load_gen --ports=" +
                           ports + " --seed=" + std::to_string(kSeed) +
                           " --sessions=2 --clients=" +
                           std::to_string(kClients / 2);
  FILE* pa = popen((base + " --first=0").c_str(), "r");
  FILE* pb =
      popen((base + " --first=" + std::to_string(kClients / 2)).c_str(), "r");
  const ChildOutcome ca = read_child(pa);
  const ChildOutcome cb = read_child(pb);
  const server::SocketServerFleet::Report servers = fleet.stop();
  auto sum = [&](const char* key) { return ca.num(key) + cb.num(key); };

  const server::ServerStats& ss = servers.server;
  const bool outcome_equal =
      sum("sessions_attempted") == ref.sessions_attempted &&
      sum("sessions_completed") == ref.sessions_completed &&
      sum("sessions_failed") == ref.sessions_failed &&
      ss.full_handshakes == ref.server.full_handshakes &&
      ss.resumed_handshakes == ref.server.resumed_handshakes &&
      ss.bytes_opened == ref.server.bytes_opened &&
      ss.bytes_sealed == ref.server.bytes_sealed;
  const bool zero_alloc =
      servers.zero_steady_state_alloc &&
      ca.num("arena_allocations") == ca.num("arena_reserved") &&
      cb.num("arena_allocations") == cb.num("arena_reserved");
  const bool children_ok = ca.ok && cb.ok;
  const std::uint64_t echo_mismatches = sum("echo_mismatches");

  // Refold the global fleet digest from the children's per-client digest
  // blocks (process order = global client-id order).
  crypto::Bytes digests;
  try {
    digests = crypto::from_hex(ca.str("digests") + cb.str("digests"));
  } catch (const std::invalid_argument&) {
  }
  std::vector<crypto::ConstBytes> lanes;
  for (std::size_t i = 0; i + 32 <= digests.size(); i += 32)
    lanes.push_back(crypto::ConstBytes(digests).subspan(i, 32));
  const bool digest_match = lanes.size() == kClients &&
                            server::fold_fleet_digest(lanes) ==
                                ref.fleet_digest;

  const double wall_s = std::max(ca.real("wall_s"), cb.real("wall_s"));
  const double full_wall =
      ratio(static_cast<double>(ss.full_handshakes), wall_s);
  const double resumed_wall =
      ratio(static_cast<double>(ss.resumed_handshakes), wall_s);
  const double record_wall =
      ratio(static_cast<double>(ss.bytes_opened + ss.bytes_sealed) * 8.0,
            wall_s) /
      1e6;
  const bool ok = outcome_equal && digest_match && servers.conserved &&
                  zero_alloc && children_ok && echo_mismatches == 0;

  analysis::Table st(
      {"metric", "sim-modeled (SA-1100)", "wall-clock", "wall/modeled"});
  auto rate_row = [&](const char* name, double sim, double wall) {
    st.add_row({name, analysis::fmt(sim, 1), analysis::fmt(wall, 1),
                sim > 0 ? analysis::fmt(wall / sim, 1) + "x" : "-"});
  };
  rate_row("full handshakes /s", ref.full_handshakes_per_s, full_wall);
  rate_row("resumed handshakes /s", ref.resumed_handshakes_per_s,
           resumed_wall);
  rate_row("record Mbit/s", ref.record_mbps, record_wall);
  st.add_row({"sessions completed", std::to_string(ref.sessions_completed),
              std::to_string(sum("sessions_completed")),
              outcome_equal ? "EQUAL" : "DIVERGED"});
  std::fputs(st.render().c_str(), stdout);
  std::printf("socket bearer %s: outcomes %s, digest %s, conserved %s, "
              "zero-alloc %s, %" PRIu64 " bearer errors, wall %.2f s\n",
              ok ? "MATCHES SIM" : "BROKEN",
              outcome_equal ? "equal" : "DIVERGED",
              digest_match ? "identical" : "DIVERGED",
              servers.conserved ? "yes" : "NO",
              zero_alloc ? "yes" : "NO", sum("bearer_errors"), wall_s);

  // Rates carry _wall names, never baseline-compared; the booleans are
  // structural gates (ci/bench_compare.py check_socket_wallclock).
  json.flag(b + "skipped", false);
  json.num(b + "shards", 2, 0);
  json.num(b + "fleet_clients", kClients, 0);
  json.num(b + "sessions_each", 2, 0);
  json.num(b + "processes", 2, 0);
  json.flag(b + "outcome_equal", outcome_equal);
  json.flag(b + "digest_match", digest_match);
  json.flag(b + "conserved", servers.conserved);
  json.flag(b + "zero_steady_state_alloc", zero_alloc);
  json.num(b + "echo_mismatches", static_cast<double>(echo_mismatches), 0);
  json.num(b + "bearer_errors", static_cast<double>(sum("bearer_errors")), 0);
  json.num(b + "accepted", static_cast<double>(servers.accepted), 0);
  json.num(b + "wall_s", wall_s, 4);
  json.num(b + "full_handshakes_wall", full_wall, 3);
  json.num(b + "resumed_handshakes_wall", resumed_wall, 3);
  json.num(b + "record_mbit_wall", record_wall, 3);
  json.num(b + "wall_over_modeled_full",
           ratio(full_wall, ref.full_handshakes_per_s), 3);
  json.num(b + "wall_over_modeled_record", ratio(record_wall, ref.record_mbps),
           3);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  mapsec::bench::release_guard();
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_server.json";
  const Pki pki = Pki::make();
  JsonReport json;
  json.text("experiment", "E18-E26");
  json.text("mapsec_build_type", mapsec::bench::build_type());
  json.text("crypto_dispatch", engine::PacketPipeline::crypto_backend());

  std::puts("E18-E26: secure-session serving (simulated bearers, RSA-512 "
            "identities,\nStrongARM SA-1100 pricing; rates are simulated "
            "time unless named _wall)");
  std::printf("crypto dispatch: %s\n",
              engine::PacketPipeline::crypto_backend().c_str());

  // E18/E19: every session pays the full RSA handshake vs three of four
  // resuming through the bounded cache. The full-vs-resumed cost
  // comparison is the latency split inside ONE run; rates from different
  // cells have different offered loads.
  run_group(
      {"E18/E19: full handshakes (200 x 1) vs resumption-heavy (150 x 4), "
       "2% loss / 5% reorder",
       "scenarios",
       false,
       {kFullRate,
        {"resumed hs/s", "resumed_handshakes_per_s", 3,
         [](const Run& r) { return r.report.resumed_handshakes_per_s; }},
        kRecord,
        {"full p50 ms", "full_handshake_p50_ms", 3,
         [](const Run& r) { return r.report.full_handshake_p50_ms; }},
        {"full p99 ms", "full_handshake_p99_ms", 3,
         [](const Run& r) { return r.report.full_handshake_p99_ms; }},
        {"resumed p50 ms", "resumed_handshake_p50_ms", 3,
         [](const Run& r) { return r.report.resumed_handshake_p50_ms; }},
        {"resumed p99 ms", "resumed_handshake_p99_ms", 3,
         [](const Run& r) { return r.report.resumed_handshake_p99_ms; }},
        {"cache hits", "cache_hit_rate", 4,
         [](const Run& r) { return r.report.cache_hit_rate; }},
        {"gap sw", "gap_ratio", 3,
         [](const Run& r) { return r.report.gap.gap_ratio; }},
        {"gap ISA", "gap_ratio_isa_dispatch", 3,
         [](const Run& r) { return r.isa.gap_ratio; }},
        {"sessions/charge sw", "sessions_per_charge", 1,
         [](const Run& r) { return r.report.gap.sessions_per_charge; }},
        {"sessions/charge ISA", "sessions_per_charge_isa_dispatch", 1,
         [](const Run& r) { return r.isa.sessions_per_charge; }}},
       {make_cell(pki, "full_only", 200,
                  [](Cell& c) { c.client.sessions = 1; }),
        make_cell(pki, "resumption_heavy", 150,
                  [](Cell& c) { c.client.sessions = 4; })}},
      json);

  // E18 worker sweep: the record path shards through the PacketPipeline
  // by connection; the digest must not depend on the worker count.
  std::vector<Cell> bulk;
  for (std::size_t workers : {1u, 2u, 4u})
    bulk.push_back(make_cell(pki, "workers_" + std::to_string(workers), 100,
                             [workers](Cell& c) {
                               c.client.payloads_per_session = 8;
                               c.client.payload_bytes = 512;
                               c.server.pipeline_workers = workers;
                             }));
  const GroupRuns sweep = run_group(
      {"E18: record path vs PacketPipeline workers (100 clients x 8 x 512 B)",
       nullptr, true, {kRecord}, std::move(bulk)},
      json);

  const bool defense_holds = flood_defense(pki, json);

  // E21/E22: the full-handshake fleet with the server's RSA private ops
  // on modeled accelerator lanes (4 ms/op) that drain windows of up to
  // `width` jobs at op + 0.3/extra op, over loss-free bearers so every
  // session completes even at 1-lane saturation. Handshakes suspend at
  // each pk op and resume by completion event, so the digest must be
  // byte-identical for any lane count, any width and inline mode.
  auto offload_cell = [&](std::string key, std::size_t clients,
                          std::size_t lanes, std::size_t width) {
    return make_cell(pki, std::move(key), clients, [=](Cell& c) {
      c.load.channel = {};
      c.client.sessions = 1;
      c.client.payloads_per_session = 4;
      c.client.payload_bytes = 256;
      c.server.offload_workers = lanes;
      c.server.offload_batch_width = width;
    });
  };
  std::vector<Cell> lanes_cells{offload_cell("inline_pk", 200, 0, 1)};
  for (std::size_t lanes : {1u, 2u, 4u})
    lanes_cells.push_back(
        offload_cell("lanes_" + std::to_string(lanes), 200, lanes, 1));
  const GroupRuns off = run_group(
      {"E21: public-key offload (200 clients x 1 full handshake, modeled "
       "RSA lane = 4 ms/op)",
       "offload_sweep",
       true,
       {kFullRate, kRecord,
        {"lane util", "lane_utilisation", 3,
         [](const Run& r) { return r.report.gap.lane_utilisation; }},
        {"peak depth", nullptr, 0,
         [](const Run& r) {
           return static_cast<double>(r.report.server.offload_peak_depth);
         }}},
       std::move(lanes_cells)},
      json);
  // Cells: inline, 1, 2, 4 lanes.
  const server::LoadReport& lane1 = off.runs[1].report;
  const server::LoadReport& lane4 = off.runs[3].report;
  const double off_scaling =
      ratio(lane4.full_handshakes_per_s, lane1.full_handshakes_per_s);
  const bool offload_ok = off.digests_match && off_scaling >= 2.0 &&
                          lane4.record_mbps >= lane1.record_mbps;
  std::printf("1->4 lane handshake scaling %.2fx (gate >= 2x), record path "
              "%.3f -> %.3f Mbit/s\n",
              off_scaling, lane1.record_mbps, lane4.record_mbps);

  // 400 clients at 0.5 ms mean arrivals: the lane-bound phase is long
  // enough that the arrival ramp and the last session's record tail
  // cannot dilute the window-pricing ratio below the 2x gate (a full
  // 4-window serves 4 ops in 1.9 op-slots).
  std::vector<Cell> width_cells;
  for (std::size_t lanes : {1u, 2u})
    for (std::size_t width : {1u, 2u, 4u, 8u}) {
      Cell c = offload_cell("lanes_" + std::to_string(lanes) + "_width_" +
                                std::to_string(width),
                            400, lanes, width);
      c.load.mean_interarrival_us = 500;
      width_cells.push_back(std::move(c));
    }
  const GroupRuns bat = run_group(
      {"E22: batched offload (same fleet, 400 clients, lanes x batch width)",
       "batched_offload_sweep",
       true,
       {kFullRate, kRecord,
        {"modeled util", "batched_utilisation", 3,
         [](const Run& r) { return r.report.gap.lane_utilisation; }},
        {"batched jobs", nullptr, 0,
         [](const Run& r) {
           return static_cast<double>(r.report.server.offload_batched_jobs);
         }},
        {"max fill", nullptr, 0,
         [](const Run& r) {
           return static_cast<double>(
               r.report.server.offload_max_batch_fill);
         }}},
       std::move(width_cells)},
      json);
  // Cells 0..3 are the 1-lane sweep: widths 1, 2, 4, 8.
  const server::LoadReport& width1 = bat.runs[0].report;
  const server::LoadReport& width4 = bat.runs[2].report;
  const double batch_scaling =
      ratio(width4.full_handshakes_per_s, width1.full_handshakes_per_s);
  const bool batched_ok = bat.digests_match && batch_scaling >= 2.0 &&
                          width4.record_mbps >= width1.record_mbps &&
                          width4.server.offload_batched_jobs > 0;
  std::printf("1-lane width 1->4 handshake scaling %.2fx (gate >= 2x), "
              "record path %.3f -> %.3f Mbit/s\n",
              batch_scaling, width1.record_mbps, width4.record_mbps);
  const auto [cache_hashed_ns, cache_tree_ns] = cache_index();

  // E23: two identical fleets, one resuming through the bounded cache and
  // one through encrypted session tickets with the cache disabled
  // (capacity 0), must serve the same load at the same rate (droop gate
  // 10%) with one fleet digest, while server resumption state goes from
  // O(cached users) to O(key ring). The ticket charge pays the
  // per-session CCM open/seal, so it is flat across user counts.
  auto ticket_cell = [&](bool tickets) {
    return make_cell(pki, tickets ? "ticket" : "cache", 150,
                     [tickets](Cell& c) {
                       c.client.sessions = 4;
                       c.client.use_session_tickets = tickets;
                       c.server.ticket.enabled = tickets;
                       if (tickets) c.cache.capacity = 0;
                     });
  };
  const GroupRuns tk = run_group(
      {"E23: bounded cache vs stateless tickets (150 clients x 4 sessions)",
       nullptr,
       true,
       {{"sessions/s", nullptr, 1,
         [](const Run& r) { return r.report.sessions_per_s; }},
        {"resumed hs", nullptr, 0,
         [](const Run& r) {
           return static_cast<double>(r.report.server.resumed_handshakes);
         }},
        {"via ticket", nullptr, 0,
         [](const Run& r) {
           return static_cast<double>(r.report.server.ticket_resumptions);
         }},
        {"resumed p50 ms", nullptr, 1,
         [](const Run& r) { return r.report.resumed_handshake_p50_ms; }},
        {"sessions/charge", nullptr, 0,
         [](const Run& r) { return r.report.gap.sessions_per_charge; }},
        {"state bytes", nullptr, 0,
         [](const Run& r) {
           return static_cast<double>(r.report.cache_state_bytes +
                                      r.report.ticket_state_bytes);
         }}},
       {ticket_cell(false), ticket_cell(true)}},
      json);
  const server::LoadReport& rc = tk.runs[0].report;
  const server::LoadReport& rt = tk.runs[1].report;
  const double ticket_droop =
      ratio(rc.sessions_per_s - rt.sessions_per_s, rc.sessions_per_s);
  const double charge_drift =
      ratio(std::abs(rt.gap.sessions_per_charge - rc.gap.sessions_per_charge),
            rc.gap.sessions_per_charge);
  const double per_user_bytes =
      static_cast<double>(rc.cache_state_bytes) / 150.0;
  analysis::Table scale_tab({"users", "cache state (modeled)",
                             "ticket state", "state ratio"});
  for (const double users : {1e4, 1e5, 1e6})
    scale_tab.add_row(
        {analysis::fmt(users, 0), analysis::fmt(per_user_bytes * users, 0),
         std::to_string(rt.ticket_state_bytes),
         analysis::fmt(ratio(per_user_bytes * users,
                             static_cast<double>(rt.ticket_state_bytes)),
                       0) +
             "x"});
  std::fputs(scale_tab.render().c_str(), stdout);
  const bool ticket_ok = ticket_droop <= 0.10 && charge_drift <= 0.10 &&
                         tk.digests_match &&
                         rt.server.ticket_resumptions > 0 &&
                         rt.cache_state_bytes == 0 &&
                         rt.ticket_state_bytes < 10'000;
  std::printf("ticket path %s: throughput droop %.1f%% (gate <= 10%%), "
              "charge drift %.1f%% (gate <= 10%%), state %.0f B/user -> "
              "%zu B total\n",
              ticket_ok ? "HOLDS" : "DROOPED", ticket_droop * 100,
              charge_drift * 100, per_user_bytes, rt.ticket_state_bytes);
  // Only the two rate pairs carry comparable suffixes; droop, state bytes
  // and the extrapolation rows are descriptive.
  json.num("ticket_scale/cache_sessions_per_s", rc.sessions_per_s, 3);
  json.num("ticket_scale/ticket_sessions_per_s", rt.sessions_per_s, 3);
  json.num("ticket_scale/cache_record_mbps", rc.record_mbps, 3);
  json.num("ticket_scale/ticket_record_mbps", rt.record_mbps, 3);
  json.num("ticket_scale/throughput_droop", ticket_droop, 4);
  json.num("ticket_scale/cache_sessions_per_charge",
           rc.gap.sessions_per_charge, 1);
  json.num("ticket_scale/ticket_sessions_per_charge",
           rt.gap.sessions_per_charge, 1);
  json.num("ticket_scale/cache_state_bytes_per_user", per_user_bytes, 1);
  json.num("ticket_scale/ticket_state_bytes",
           static_cast<double>(rt.ticket_state_bytes), 0);
  json.num("ticket_scale/cache_state_bytes_10k_users", per_user_bytes * 1e4,
           0);
  json.num("ticket_scale/cache_state_bytes_100k_users", per_user_bytes * 1e5,
           0);
  json.num("ticket_scale/cache_state_bytes_1m_users", per_user_bytes * 1e6,
           0);
  json.num("ticket_scale/ticket_resumptions",
           static_cast<double>(rt.server.ticket_resumptions), 0);
  json.flag("ticket_scale/digests_match", tk.digests_match);

  // E24: the modeled host core makes session processing cost simulated
  // time (800 us per RSA op, 50 us per flight, 20 us per appdata KiB), so
  // ONE event loop is core-bound under this fleet; N shards (N modeled
  // cores on real threads, merged at 1 ms epoch barriers) must scale the
  // aggregate handshake rate >= 3x from 1 to 4 with one digest for all.
  std::vector<Cell> shard_cells;
  for (std::size_t shards : {1u, 2u, 4u, 8u})
    shard_cells.push_back(make_cell(
        pki, "shards_" + std::to_string(shards), 600, [shards](Cell& c) {
          c.load.channel = {};
          c.load.mean_interarrival_us = 200;
          c.load.poisson_arrivals = false;
          c.load.shards = shards;
          c.client.sessions = 1;
          c.client.payloads_per_session = 2;
          c.client.think_time_us = 0;
          c.server.core.us_per_pk_op = 800.0;
          c.server.core.us_per_flight = 50.0;
          c.server.core.us_per_appdata_kb = 20.0;
        }));
  const GroupRuns sh = run_group(
      {"E24: sharded serving tier (600 clients, core-bound, slice 1 ms)",
       "shard_sweep",
       true,
       {kFullRate, kRecord,
        {"hs p99 ms", "handshake_p99_ms", 3,
         [](const Run& r) { return r.report.handshake_p99_ms; }},
        {"epochs", "merge_epochs", 0,
         [](const Run& r) { return static_cast<double>(r.report.epochs); }}},
       std::move(shard_cells)},
      json);
  bool sh_conserved = true;
  for (const Run& r : sh.runs)
    sh_conserved = sh_conserved && r.report.conserved;
  const double shard_scaling =
      ratio(sh.runs[2].report.full_handshakes_per_s,
            sh.runs[0].report.full_handshakes_per_s);
  std::printf("1->4 shard aggregate handshake scaling %.2fx (gate >= 3x); "
              "books %s\n",
              shard_scaling, sh_conserved ? "conserved" : "DIVERGED");

  // E24 soak: lingering clients (handshake, then silence) pile up until
  // the idle reaper closes them, so the barrier-observed peak must reach
  // 10k while per-shard sums still conserve against the fleet totals.
  const GroupRuns soak_runs = run_group(
      {"E24 soak: 10k concurrent lingering sessions on 8 shards",
       nullptr,
       false,
       {{"peak open", nullptr, 0,
         [](const Run& r) {
           return static_cast<double>(r.report.peak_open_connections);
         }},
        {"handshakes", nullptr, 0,
         [](const Run& r) {
           return static_cast<double>(r.report.server.handshakes_completed);
         }},
        {"idle closes", nullptr, 0,
         [](const Run& r) {
           return static_cast<double>(r.report.server.idle_closes);
         }},
        {"epochs", nullptr, 0,
         [](const Run& r) { return static_cast<double>(r.report.epochs); }},
        {"conserved", nullptr, 0,
         [](const Run& r) { return r.report.conserved ? 1.0 : 0.0; }}},
       {make_cell(pki, "soak", 10'000, [](Cell& c) {
         c.load.channel = {};
         c.load.mean_interarrival_us = 100;
         c.load.poisson_arrivals = false;
         c.load.shards = 8;
         c.client.linger = true;
         c.cache.capacity = 16'384;
       })}},
      json);
  const server::LoadReport& soak = soak_runs.runs[0].report;
  const bool sharded_ok = sh.digests_match && sh_conserved &&
                          shard_scaling >= 3.0 &&
                          soak.peak_open_connections >= 10'000 &&
                          soak.conserved &&
                          soak.server.handshakes_completed >= 10'000;
  json.num("shard_sweep/scaling_1_to_4", shard_scaling, 2);
  json.flag("shard_sweep/digests_match", sh.digests_match);
  json.num("shard_sweep/soak_peak_open_connections",
           static_cast<double>(soak.peak_open_connections), 0);
  json.flag("shard_sweep/soak_conserved", soak.conserved);

  const bool failover_ok = failover_slo(pki, json);
  const bool socket_ok = socket_bearer(pki, json);

  json.flag("offload_digests_match", off.digests_match);
  json.num("offload_scaling_1_to_4", off_scaling, 2);
  json.flag("batched_digests_match", bat.digests_match);
  json.num("batched_scaling_width_1_to_4", batch_scaling, 2);
  json.num("session_cache_hashed_ns_per_lookup", cache_hashed_ns, 1);
  json.num("session_cache_tree_ns_per_lookup", cache_tree_ns, 1);
  json.num("bulk_record_mbps", sweep.runs.back().report.record_mbps, 3);
  json.flag("worker_sweep_digests_match", sweep.digests_match);
  json.flag("flood_defense_holds", defense_holds);
  json.flag("sharded_ok", sharded_ok);
  json.flag("failover_ok", failover_ok);
  json.flag("socket_ok", socket_ok);
  if (!json.write(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return sweep.digests_match && defense_holds && offload_ok && batched_ok &&
                 ticket_ok && sharded_ok && failover_ok && socket_ok
             ? 0
             : 1;
}
