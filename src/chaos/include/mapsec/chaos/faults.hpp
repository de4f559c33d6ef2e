// Fault catalogue for deterministic chaos campaigns.
//
// Each fault is a plain value naming WHAT breaks and WHEN (in simulated
// microseconds on the campaign's EventQueue). The CampaignRunner turns a
// FaultPlan into scheduled events on the same queue that drives the
// server, clients and channels, so an entire campaign — including every
// injected failure — is a pure function of its seed and plan. The classes
// map onto the paper's threat surface: bearer outages and fades
// (Section 2's hostile links), crypto-engine failure and entropy
// starvation (Section 4's hardware assists), processing stalls
// (Section 3's MIPS gap), and battery-exhaustion denial of service
// (Section 3.3 / 3.4).
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "mapsec/net/sim_clock.hpp"

namespace mapsec::chaos {

/// Total bearer outage: every frame on every registered channel is lost
/// for the duration. Overlapping blackouts nest (the bearer recovers when
/// the last one lifts).
struct Blackout {
  net::SimTime at_us = 0;
  net::SimTime duration_us = 0;
};

/// Repeated short outages — the bearer "flapping" between cells or
/// interfaces: `flaps` outages of `outage_us` each, starting every
/// `period_us` from `at_us`.
struct BearerFlap {
  net::SimTime at_us = 0;
  int flaps = 3;
  net::SimTime period_us = 500'000;
  net::SimTime outage_us = 100'000;
};

/// Gilbert-Elliott burst loss switched on for a window (0 duration =
/// rest of the run): models fade/interference bursts rather than
/// independent drops.
struct BurstLoss {
  net::SimTime at_us = 0;
  net::SimTime duration_us = 0;
  double p_good_to_bad = 0.05;
  double p_bad_to_good = 0.30;
  double loss_bad = 0.9;
};

/// Serialization rate collapses to an absolute floor (works whether the
/// base config was rate-limited or unlimited), then recovers.
struct BandwidthCollapse {
  net::SimTime at_us = 0;
  net::SimTime duration_us = 0;
  double bytes_per_sec = 2'000;  // ~GSM CSD class
};

/// The accelerated crypto backend "fails" mid-run: dispatch is pinned to
/// the scalar path (crypto::dispatch::force_scalar), recovering after
/// `duration_us` (0 = rest of the run). Kernels are bit-identical, so
/// this must be output-invariant — only costs change.
struct DispatchFailure {
  net::SimTime at_us = 0;
  net::SimTime duration_us = 0;
};

/// The server's handshake entropy source runs dry: every fill() throws
/// until the pool is refilled after `duration_us`. Connections that ask
/// for randomness meanwhile must fail alone (poisoned-connection
/// containment), never take down the event loop.
struct RngExhaustion {
  net::SimTime at_us = 0;
  net::SimTime duration_us = 1'000'000;
};

/// The server's record path goes slow: a wall-clock stall per
/// PacketPipeline batch. Simulated-time outcomes and bytes must be
/// identical, only host latency changes.
struct WorkerStall {
  net::SimTime at_us = 0;
  net::SimTime duration_us = 0;  // 0 = rest of the run
  std::uint64_t stall_ns = 200'000;
};

/// One (or all) public-key offload workers go slow: a wall-clock stall
/// per job, injected into the server's OffloadEngine. The completion
/// event's steal path must absorb it — after the grace period the job is
/// recomputed inline, bit-identically — so simulated outcomes are
/// unchanged; only host latency and the `stolen` counter move. A no-op
/// when the server runs public-key operations inline (no engine).
struct OffloadStall {
  net::SimTime at_us = 0;
  net::SimTime duration_us = 0;  // 0 = rest of the run
  std::size_t worker = 0;
  bool all_workers = false;
  std::uint64_t stall_ns = 400'000'000;  // well past the steal timeout
};

/// Full-handshake flood (battery-exhaustion DoS): `attackers` adversarial
/// clients each opening `connections_each` connections, every one forcing
/// the server through handshake work and then abandoning the session.
/// `reach_key_exchange` decides how deep each probe goes: just the
/// ClientHello (cheap for the attacker, costs the server a certificate
/// flight) or through the ClientKeyExchange (costs the server the RSA
/// private operation — the paper's 42 mJ/KB worst case).
struct HandshakeFlood {
  net::SimTime at_us = 0;
  int attackers = 4;
  int connections_each = 8;
  net::SimTime interarrival_us = 10'000;
  bool reach_key_exchange = true;
};

/// Adversarial clients speaking garbage: structure-aware mutations of
/// valid wire frames (truncated records, corrupt lengths, wrong kinds,
/// random splices). Every such connection must die cleanly by
/// fail_connection — never UB, never the event loop.
struct MalformedTraffic {
  net::SimTime at_us = 0;
  int clients = 2;
  int connections_each = 4;
  int messages_per_connection = 3;
  net::SimTime interarrival_us = 20'000;
  net::SimTime message_gap_us = 2'000;
};

/// One serving shard dies (sharded campaigns only). `graceful` drains the
/// shard first — unroute, let open connections finish, hard-kill whatever
/// remains at the drain deadline; otherwise it is a hard crash at the
/// first epoch barrier >= at_us: every open connection on the victim
/// fails, its world's schedule dies, and bound honest clients remap to
/// survivors (rendezvous hashing: only the victim's keys move) where they
/// resume with their session ticket. After `repair_us` the shard rejoins
/// warm (replica ticket ring, replayed control history, rebuilt bearer
/// weather). 0 = never rejoins.
struct ShardCrash {
  net::SimTime at_us = 0;
  std::size_t shard = 0;
  net::SimTime repair_us = 2'000'000;
  bool graceful = false;
  net::SimTime drain_deadline_us = 1'000'000;
};

/// One serving shard's thread wedges mid-slice (sharded campaigns only):
/// a net::HangLatch parks it at `at_us`; the executor's wall-clock
/// watchdog releases and reports it, and the supervisor escalates to a
/// hard-kill with the same failover/rejoin semantics as ShardCrash.
struct ShardHang {
  net::SimTime at_us = 0;
  std::size_t shard = 0;
  net::SimTime repair_us = 2'000'000;
};

/// WorkerStall scoped to ONE shard's pipeline (sharded campaigns): the
/// stall event rides the shard's own queue, so it lands at a
/// deterministic simulated instant without touching any other shard's
/// world. Dies with the shard if it crashes first; a rejoined shard's
/// fresh pipeline starts unstalled.
struct ShardWorkerStall {
  net::SimTime at_us = 0;
  net::SimTime duration_us = 0;  // 0 = rest of the run
  std::size_t shard = 0;
  std::uint64_t stall_ns = 200'000;
};

/// OffloadStall scoped to ONE shard's OffloadEngine (sharded campaigns),
/// same delivery contract as ShardWorkerStall. A no-op when the server
/// runs public-key operations inline.
struct ShardOffloadStall {
  net::SimTime at_us = 0;
  net::SimTime duration_us = 0;  // 0 = rest of the run
  std::size_t shard = 0;
  std::size_t worker = 0;
  bool all_workers = false;
  std::uint64_t stall_ns = 400'000'000;
};

/// Forced ticket sealing-key rotations (operational key roll, or the
/// panic response to suspected key compromise): `rotations` immediate
/// rotations at `at_us`, then one per `period_us` (0 = all at once).
/// Against a correctly windowed TicketKeyRing an honest client holding a
/// recent ticket keeps resuming (or falls back to a full handshake and
/// gets a fresh ticket) — the campaign's judge asserts zero honest-client
/// failures under mid-flood rotation.
struct TicketKeyRotation {
  net::SimTime at_us = 0;
  int rotations = 1;
  net::SimTime period_us = 0;
};

using Fault =
    std::variant<Blackout, BearerFlap, BurstLoss, BandwidthCollapse,
                 DispatchFailure, RngExhaustion, WorkerStall, OffloadStall,
                 ShardCrash, ShardHang, ShardWorkerStall, ShardOffloadStall,
                 HandshakeFlood, MalformedTraffic, TicketKeyRotation>;

using FaultPlan = std::vector<Fault>;

}  // namespace mapsec::chaos
