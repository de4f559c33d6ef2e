#include "mapsec/chaos/campaign.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <variant>
#include <vector>

#include "mapsec/chaos/adversary.hpp"
#include "mapsec/chaos/exhaustible_rng.hpp"
#include "mapsec/crypto/dispatch.hpp"
#include "mapsec/server/load_gen.hpp"
#include "mapsec/server/supervisor.hpp"

namespace mapsec::chaos {

namespace {

/// Faults flip process-global dispatch state; restore it however the
/// run ends.
struct DispatchGuard {
  bool prev = crypto::dispatch::scalar_forced();
  ~DispatchGuard() { crypto::dispatch::force_scalar(prev); }
};

/// The bearer's current fault state, composed over the base config.
/// Blackouts nest (depth counter) so overlapping plans recover exactly
/// when the last outage lifts.
struct Weather {
  int blackout_depth = 0;
  bool collapsed = false;
  double collapse_bytes_per_sec = 0;
  bool burst = false;
  double ge_p_good_to_bad = 0.05;
  double ge_p_bad_to_good = 0.30;
  double ge_loss_bad = 0.9;
};

/// Memory peaks may legitimately overshoot their configured cap by the
/// final message/batch that tripped the limit; anything past this slop
/// is an unbounded-growth bug.
constexpr std::uint64_t kMemorySlop = 32 * 1024;

/// Reject faults the chosen world cannot deliver, before building it.
void validate_plan(const FaultPlan& faults, std::size_t shards) {
  for (const Fault& fault : faults) {
    // The Shard* lifecycle faults are the ones that name a shard.
    const std::optional<std::size_t> target = std::visit(
        [](const auto& f) -> std::optional<std::size_t> {
          if constexpr (requires { f.shard; })
            return f.shard;
          else
            return std::nullopt;
        },
        fault);
    if (shards == 0) {
      if (target)
        throw std::invalid_argument(
            "chaos: Shard* lifecycle faults need a sharded campaign "
            "(CampaignConfig::shards >= 1)");
      continue;
    }
    // Stalls have shard-scoped replacements; the process-global pair has
    // none.
    if (std::holds_alternative<DispatchFailure>(fault) ||
        std::holds_alternative<RngExhaustion>(fault))
      throw std::invalid_argument(
          "chaos: DispatchFailure/RngExhaustion flip process-global state "
          "(crypto dispatch, the one exhaustible rng) and cannot be "
          "delivered at a deterministic simulated instant across "
          "concurrently-running shards");
    if (std::holds_alternative<WorkerStall>(fault) ||
        std::holds_alternative<OffloadStall>(fault))
      throw std::invalid_argument(
          "chaos: WorkerStall/OffloadStall name no owning shard; use "
          "ShardWorkerStall/ShardOffloadStall, which ride one shard's own "
          "queue");
    if (target && *target >= shards)
      throw std::invalid_argument("chaos: Shard* fault's shard out of range");
  }
}

}  // namespace

CampaignReport CampaignRunner::run() {
  validate_plan(config_.faults, config_.shards);
  DispatchGuard dispatch_guard;

  // The single loop's entropy source is exhaustible — the RngExhaustion
  // fault drains it live; until then it behaves exactly like a seeded DRBG.
  ExhaustibleRng server_rng(server::fleet_server_seed(config_.seed));

  // The honest fleet: on the tier, a supervised one — honest clients bind
  // for failover-aware routing (attackers keep the stable hash home; a
  // dead shard just doesn't answer their dial).
  server::LoadConfig fleet;
  fleet.num_clients = config_.honest_clients;
  fleet.mean_interarrival_us = config_.mean_interarrival_us;
  fleet.poisson_arrivals = config_.poisson_arrivals;
  fleet.channel = config_.channel;
  fleet.seed = config_.seed;
  fleet.shards = config_.shards;
  fleet.slice_us = config_.slice_us;
  server::FleetWorld world(fleet, config_.server, config_.client,
                           config_.cache, &server_rng, /*supervised=*/true);
  server::ShardSupervisor* const tier = world.supervisor();
  if (tier != nullptr) tier->set_watchdog_wall_ms(config_.watchdog_wall_ms);

  // ---- bearer weather -------------------------------------------------
  // Each world's bearer state is local to it. Every new channel takes its
  // world's current weather and is registered, so faults scheduled later
  // reach channels created earlier and vice versa.
  std::vector<Weather> weather(world.worlds());
  std::vector<std::vector<net::LossyChannel*>> live_channels(world.worlds());
  auto apply_weather = [this](const Weather& w, net::LossyChannel& ch) {
    net::ChannelConfig& cfg = ch.mutable_config();
    const net::ChannelConfig& base = config_.channel;
    cfg.loss_rate = w.blackout_depth > 0 ? 1.0 : base.loss_rate;
    cfg.bytes_per_sec =
        w.collapsed ? w.collapse_bytes_per_sec : base.bytes_per_sec;
    cfg.ge_enabled = base.ge_enabled || w.burst;
    if (w.burst) {
      cfg.ge_p_good_to_bad = w.ge_p_good_to_bad;
      cfg.ge_p_bad_to_good = w.ge_p_bad_to_good;
      cfg.ge_loss_bad = w.ge_loss_bad;
    } else {
      cfg.ge_p_good_to_bad = base.ge_p_good_to_bad;
      cfg.ge_p_bad_to_good = base.ge_p_bad_to_good;
      cfg.ge_loss_bad = base.ge_loss_bad;
    }
  };
  auto reapply = [&](std::size_t w) {
    for (net::LossyChannel* ch : live_channels[w])
      apply_weather(weather[w], *ch);
  };
  world.set_on_channel([&](std::size_t w, net::DuplexChannel& channel) {
    apply_weather(weather[w], channel.a_to_b());
    apply_weather(weather[w], channel.b_to_a());
    live_channels[w].push_back(&channel.a_to_b());
    live_channels[w].push_back(&channel.b_to_a());
  });

  // ---- fault plan -----------------------------------------------------
  // Bearer weather is flipped by identical events scheduled on EVERY
  // world's queue at the same simulated times, so each shard's bearer
  // degrades and recovers in lockstep without any cross-thread traffic.
  // The flips are kept as a PLAN (not just queue events): a hard-killed
  // shard loses its scheduled flips with the rest of its world, so the
  // rejoin hook below replays the past ones into a fresh Weather and
  // re-schedules the future ones.
  std::vector<std::unique_ptr<FloodClient>> floods;
  std::vector<std::unique_ptr<MalformedClient>> vandals;
  std::uint64_t fault_index = 0;
  std::uint64_t planned_crashes = 0;
  std::uint64_t planned_drains = 0;
  std::uint64_t planned_hangs = 0;
  std::uint64_t planned_rejoins = 0;

  struct WeatherFlip {
    net::SimTime at = 0;
    std::function<void(Weather&)> fn;
  };
  std::vector<WeatherFlip> weather_plan;
  auto weather_event = [&](net::SimTime at, std::function<void(Weather&)> fn) {
    weather_plan.push_back({at, std::move(fn)});
  };

  // Pipeline and offload stalls ride the target world's own queue (world
  // 0 on the single loop): they land at a deterministic simulated instant
  // and run on the one thread that owns the stalled engine. A shard's
  // stall dies with it if it crashes first; a rejoined shard's fresh
  // engines start unstalled.
  auto stall_window = [&world](std::size_t w, net::SimTime at,
                               net::SimTime duration,
                               std::function<void(std::uint64_t)> set,
                               std::uint64_t stall_ns) {
    world.queue(w).schedule_at(at, [set, stall_ns] { set(stall_ns); });
    if (duration != 0)
      world.queue(w).schedule_at(at + duration, [set] { set(0); });
  };
  auto pipeline_stall = [&world](std::size_t w) {
    return [&world, w](std::uint64_t ns) {
      world.server(w).pipeline_for_chaos().inject_stall(ns);
    };
  };
  auto offload_stall = [&world](std::size_t w, std::size_t worker,
                                bool all_workers) {
    return [&world, w, worker, all_workers](std::uint64_t ns) {
      engine::OffloadEngine* off = world.server(w).offload_for_chaos();
      if (off == nullptr) return;  // inline pk mode: nothing to stall
      if (all_workers) {
        for (std::size_t i = 0; i < off->num_workers(); ++i)
          off->inject_worker_stall(i, ns);
      } else {
        off->inject_worker_stall(worker, ns);
      }
    };
  };

  for (const Fault& fault : config_.faults) {
    const std::uint64_t fseed =
        server::load_sub_seed(config_.seed, 0xFA017 + fault_index);
    ++fault_index;

    if (const auto* f = std::get_if<Blackout>(&fault)) {
      weather_event(f->at_us, [](Weather& w) { ++w.blackout_depth; });
      weather_event(f->at_us + f->duration_us,
                    [](Weather& w) { --w.blackout_depth; });
    } else if (const auto* f = std::get_if<BearerFlap>(&fault)) {
      for (int i = 0; i < f->flaps; ++i) {
        const net::SimTime start =
            f->at_us + static_cast<net::SimTime>(i) * f->period_us;
        weather_event(start, [](Weather& w) { ++w.blackout_depth; });
        weather_event(start + f->outage_us,
                      [](Weather& w) { --w.blackout_depth; });
      }
    } else if (const auto* f = std::get_if<BurstLoss>(&fault)) {
      weather_event(f->at_us, [p = *f](Weather& w) {
        w.burst = true;
        w.ge_p_good_to_bad = p.p_good_to_bad;
        w.ge_p_bad_to_good = p.p_bad_to_good;
        w.ge_loss_bad = p.loss_bad;
      });
      if (f->duration_us != 0)
        weather_event(f->at_us + f->duration_us,
                      [](Weather& w) { w.burst = false; });
    } else if (const auto* f = std::get_if<BandwidthCollapse>(&fault)) {
      weather_event(f->at_us, [bps = f->bytes_per_sec](Weather& w) {
        w.collapsed = true;
        w.collapse_bytes_per_sec = bps;
      });
      if (f->duration_us != 0)
        weather_event(f->at_us + f->duration_us,
                      [](Weather& w) { w.collapsed = false; });
    } else if (const auto* f = std::get_if<DispatchFailure>(&fault)) {
      world.queue(0).schedule_at(
          f->at_us, [] { crypto::dispatch::force_scalar(true); });
      if (f->duration_us != 0)
        world.queue(0).schedule_at(f->at_us + f->duration_us,
                                   [prev = dispatch_guard.prev] {
                                     crypto::dispatch::force_scalar(prev);
                                   });
    } else if (const auto* f = std::get_if<RngExhaustion>(&fault)) {
      world.queue(0).schedule_at(f->at_us, [&] { server_rng.exhaust(); });
      world.queue(0).schedule_at(f->at_us + f->duration_us,
                                 [&] { server_rng.refill(); });
    } else if (const auto* f = std::get_if<WorkerStall>(&fault)) {
      stall_window(0, f->at_us, f->duration_us, pipeline_stall(0),
                   f->stall_ns);
    } else if (const auto* f = std::get_if<ShardWorkerStall>(&fault)) {
      stall_window(f->shard, f->at_us, f->duration_us,
                   pipeline_stall(f->shard), f->stall_ns);
    } else if (const auto* f = std::get_if<OffloadStall>(&fault)) {
      stall_window(0, f->at_us, f->duration_us,
                   offload_stall(0, f->worker, f->all_workers), f->stall_ns);
    } else if (const auto* f = std::get_if<ShardOffloadStall>(&fault)) {
      stall_window(f->shard, f->at_us, f->duration_us,
                   offload_stall(f->shard, f->worker, f->all_workers),
                   f->stall_ns);
    } else if (const auto* f = std::get_if<ShardCrash>(&fault)) {
      const net::SimTime repair =
          f->repair_us == 0 ? server::ShardSupervisor::kNoRepair
                            : f->repair_us;
      if (f->graceful) {
        ++planned_drains;
        tier->schedule_drain(f->at_us, f->shard, f->drain_deadline_us,
                             repair);
      } else {
        ++planned_crashes;
        tier->schedule_crash(f->at_us, f->shard, repair);
      }
      if (f->repair_us != 0) ++planned_rejoins;
    } else if (const auto* f = std::get_if<ShardHang>(&fault)) {
      const net::SimTime repair =
          f->repair_us == 0 ? server::ShardSupervisor::kNoRepair
                            : f->repair_us;
      ++planned_hangs;
      tier->schedule_hang(f->at_us, f->shard, repair);
      if (f->repair_us != 0) ++planned_rejoins;
    } else if (const auto* f = std::get_if<HandshakeFlood>(&fault)) {
      for (int a = 0; a < f->attackers; ++a) {
        FloodConfig fc;
        fc.handshake = config_.client.handshake;
        fc.link = config_.client.link;
        fc.connections = f->connections_each;
        fc.interarrival_us = f->interarrival_us;
        fc.reach_key_exchange = f->reach_key_exchange;
        const auto key = static_cast<std::uint32_t>(0xF000 + floods.size());
        net::EventQueue& queue = world.queue(world.world_of(key));
        auto attacker = std::make_unique<FloodClient>(
            queue, std::move(fc), key,
            server::load_sub_seed(fseed, 0xDD05 + a));
        attacker->set_connect(
            [&world, key, link = config_.client.link](FloodClient&) {
              return world.connect(key, link);
            });
        queue.schedule_at(f->at_us, [p = attacker.get()] { p->start(); });
        floods.push_back(std::move(attacker));
      }
    } else if (const auto* f = std::get_if<MalformedTraffic>(&fault)) {
      for (int c = 0; c < f->clients; ++c) {
        MalformedConfig mc;
        mc.link = config_.client.link;
        mc.connections = f->connections_each;
        mc.messages_per_connection = f->messages_per_connection;
        mc.interarrival_us = f->interarrival_us;
        mc.message_gap_us = f->message_gap_us;
        const auto key = static_cast<std::uint32_t>(0xBAD0 + vandals.size());
        net::EventQueue& queue = world.queue(world.world_of(key));
        auto vandal = std::make_unique<MalformedClient>(
            queue, std::move(mc), key,
            make_seeded_mutator(server::load_sub_seed(fseed, 0x3AD + c),
                                config_.client.handshake));
        vandal->set_connect(
            [&world, key, link = config_.client.link](MalformedClient&) {
              return world.connect(key, link);
            });
        queue.schedule_at(f->at_us, [p = vandal.get()] { p->start(); });
        vandals.push_back(std::move(vandal));
      }
    } else if (const auto* f = std::get_if<TicketKeyRotation>(&fault)) {
      // On the tier, through the epoch-barrier control channel: every
      // shard rotates at the same barrier, in deterministic order against
      // other control messages, and a shard that was dead for a rotation
      // replays it from the recorded control history at rejoin — ring
      // epochs stay in lockstep fleet-wide.
      for (int r = 0; r < f->rotations; ++r) {
        const net::SimTime when =
            f->at_us + static_cast<net::SimTime>(r) * f->period_us;
        if (tier != nullptr)
          tier->rotate_ticket_keys(when);
        else
          world.queue(0).schedule_at(
              when, [&world] { world.server(0).rotate_ticket_key(); });
      }
    }
  }

  // Schedule the weather plan in time order on every world (stable, so
  // same-instant flips keep plan order), and arm the rejoin hook that
  // rebuilds a returning shard's weather world: past flips replayed into
  // a fresh Weather, future flips re-scheduled on the (cleared) queue.
  std::stable_sort(
      weather_plan.begin(), weather_plan.end(),
      [](const WeatherFlip& a, const WeatherFlip& b) { return a.at < b.at; });
  auto schedule_flip = [&](std::size_t w, const WeatherFlip& flip) {
    world.queue(w).schedule_at(flip.at, [&, w, fn = flip.fn] {
      fn(weather[w]);
      reapply(w);
    });
  };
  for (std::size_t w = 0; w < world.worlds(); ++w)
    for (const WeatherFlip& flip : weather_plan) schedule_flip(w, flip);
  if (tier != nullptr)
    tier->set_on_rejoin([&](std::size_t s) {
      const net::SimTime now = world.queue(s).now();
      weather[s] = Weather{};
      for (const WeatherFlip& flip : weather_plan) {
        if (flip.at <= now)
          flip.fn(weather[s]);
        else
          schedule_flip(s, flip);
      }
      reapply(s);
    });

  // ---- run ------------------------------------------------------------
  const server::ShardedServer::RunStats rs = world.run(config_.max_events);

  // ---- judge ----------------------------------------------------------
  CampaignReport report;
  static_cast<server::FleetTally&>(report) =
      server::tally_fleet(world.clients());
  report.server = world.stats();
  report.drained = rs.drained;
  report.open_at_end = world.open_connections();
  report.conserved = world.conserved();
  report.degraded_time_us = rs.degraded_time_us;
  report.degraded_transitions = rs.degraded_transitions;
  report.sim_duration_s = static_cast<double>(world.now()) / 1e6;

  if (tier != nullptr) {
    const server::ShardSupervisor::FailoverStats& fs = tier->failover_stats();
    report.shard_crashes = fs.crashes;
    report.shard_hangs_detected = fs.hangs_detected;
    report.shard_drains = fs.drains;
    report.shard_rejoins = fs.rejoins;
    report.clients_migrated = fs.clients_migrated;
    report.connections_killed = fs.connections_killed;
    report.missed_heartbeats = fs.missed_heartbeats;
  }
  std::vector<net::SimTime> blackouts;
  for (const auto& client : world.clients())
    blackouts.insert(blackouts.end(), client->failover_blackouts_us().begin(),
                     client->failover_blackouts_us().end());
  if (!blackouts.empty()) {
    std::sort(blackouts.begin(), blackouts.end());
    const auto pct = [&](double p) {
      const auto idx = static_cast<std::size_t>(
          p * static_cast<double>(blackouts.size() - 1) + 0.5);
      return static_cast<double>(blackouts[idx]) / 1000.0;
    };
    report.blackout_p50_ms = pct(0.50);
    report.blackout_p99_ms = pct(0.99);
  }

  for (const auto& flood : floods) {
    report.attack_connections += flood->stats().connections_opened;
    report.attack_refused += flood->stats().refused;
    report.attack_bytes += flood->stats().bytes_sent;
  }
  for (const auto& vandal : vandals) {
    report.attack_connections += vandal->stats().connections_opened;
    report.malformed_messages += vandal->stats().messages_sent;
    report.attack_bytes += vandal->stats().bytes_sent;
  }

  report.handshake_energy_mj =
      static_cast<double>(report.server.handshake_bytes_rx) / 1024.0 *
          config_.energy.rx_mj_per_kb +
      static_cast<double>(report.server.handshake_bytes_tx) / 1024.0 *
          config_.energy.tx_mj_per_kb +
      static_cast<double>(report.server.handshake_rsa_private_ops) *
          config_.rsa_mj_per_op;
  if (report.attack_bytes > 0)
    report.mj_per_attack_byte =
        report.handshake_energy_mj /
        static_cast<double>(report.attack_bytes);

  // ---- invariants -----------------------------------------------------
  auto flag = [&](const char* what) {
    if (!report.invariant_failures.empty())
      report.invariant_failures += "; ";
    report.invariant_failures += what;
  };
  if (!report.drained) flag("event budget exhausted (possible livelock)");
  if (report.open_at_end != 0) flag("connections left open after drain");
  if (!report.conserved) flag("connection accounting not conserved");
  if (report.echo_mismatches != 0) flag("surviving session echo mismatch");
  if (config_.server.max_pending_echo_bytes != 0 &&
      report.server.peak_pending_echo_bytes >
          config_.server.max_pending_echo_bytes + kMemorySlop)
    flag("pending-echo memory exceeded its bound");
  if (config_.server.max_deferred_appdata_bytes != 0 &&
      report.server.peak_deferred_bytes >
          config_.server.max_deferred_appdata_bytes + kMemorySlop)
    flag("deferred-appdata memory exceeded its bound");
  if (report.shard_hangs_detected < planned_hangs)
    flag("injected shard hang was not detected");
  if (report.shard_crashes < planned_crashes)
    flag("scheduled shard crash did not execute");
  if (report.shard_drains < planned_drains)
    flag("scheduled shard drain did not execute");
  if (report.shard_rejoins < planned_rejoins)
    flag("killed shard failed to rejoin");
  if (report.missed_heartbeats != 0)
    flag("live shard missed a barrier heartbeat");

  return report;
}

}  // namespace mapsec::chaos
