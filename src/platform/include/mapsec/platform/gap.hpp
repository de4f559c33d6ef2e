// The wireless security processing gap (Figure 3).
//
// Figure 3 plots required MIPS as a surface over (connection latency, data
// rate) for the reference protocol (RSA-1024 set-up + 3DES/SHA bulk), with
// a processor's capability drawn as a horizontal plane. Operating points
// whose requirement rises above the plane are infeasible — that region is
// the gap. GapAnalysis produces the surface and per-processor feasibility
// classifications.
#pragma once

#include <vector>

#include "mapsec/platform/accelerator.hpp"
#include "mapsec/platform/processor.hpp"
#include "mapsec/platform/workload.hpp"

namespace mapsec::platform {

/// One point of the Figure 3 surface.
struct GapPoint {
  double latency_s = 0;
  double mbps = 0;
  double required_mips = 0;
  double handshake_mips = 0;
  double bulk_mips = 0;
};

/// Feasibility summary of one processor plane against a surface.
struct PlaneSummary {
  Processor processor;
  std::size_t feasible_points = 0;
  std::size_t total_points = 0;
  /// Max secure data rate (Mbps) at 1 s connection latency.
  double max_mbps_at_1s = 0;
};

class GapAnalysis {
 public:
  explicit GapAnalysis(WorkloadModel model);

  /// Evaluate the surface over a grid.
  std::vector<GapPoint> surface(const std::vector<double>& latencies_s,
                                const std::vector<double>& rates_mbps) const;

  /// The default Figure 3 grid: latency {0.1, 0.5, 1.0} s x rate
  /// {0.01 .. 60} Mbps (the paper quotes WLAN rates "2-60 Mbps").
  static std::vector<double> default_latencies();
  static std::vector<double> default_rates();

  /// Whether `proc` can sustain the operating point.
  bool feasible(const Processor& proc, const GapPoint& point) const {
    return point.required_mips <= proc.mips;
  }

  /// Classify a whole surface against one processor.
  PlaneSummary summarise(const Processor& proc,
                         const std::vector<GapPoint>& points) const;

  /// Largest bulk data rate (Mbps) `proc` sustains with connection latency
  /// `latency_s`, or 0 when even the handshake alone does not fit.
  double max_rate_mbps(const Processor& proc, double latency_s) const;

  const WorkloadModel& model() const { return model_; }

 private:
  WorkloadModel model_;
};

// ---- served-load accounting ----------------------------------------------

/// Observed serving rates from a session-server run (mapsec::server's
/// LoadGenerator) — the measured counterpart of the Figure 3 axes:
/// handshakes per second instead of connection latency, protected
/// megabits per second instead of a nominal data rate.
struct ServedLoad {
  double full_handshakes_per_s = 0;
  double resumed_handshakes_per_s = 0;
  double bulk_mbps = 0;           // protected record-layer throughput
  double avg_session_kb = 0;      // protected KB per served session
  double sessions_per_s = 0;
};

/// How a served load is carried: the host's crypto tier, public-key
/// offload lanes, stateless tickets and the sharded tier. The default is
/// the paper's base appliance: one software core, pk ops inline, a
/// session cache.
struct ServingTier {
  /// Host crypto tier (e.g. AccelProfile::isa_dispatch()). MIPS demand
  /// is priced on the accelerated cost table; the session energy is the
  /// unaccelerated bill divided by the tier's energy_efficiency.
  AccelProfile accel = AccelProfile::software();

  /// Public-key offload: with lanes > 0 the full-handshake pk ops leave
  /// the host for `lanes` accelerator lanes of `lane_op_s` seconds per op
  /// (engine::OffloadEngine), each draining windows of up to
  /// `batch_width` jobs that cost lane_op_s * (1 + (width - 1) *
  /// batch_marginal) per window (engine::OffloadCosts). Width 1 is plain
  /// offload.
  std::size_t lanes = 0;
  double lane_op_s = 0;
  std::size_t batch_width = 1;
  double batch_marginal = 0.3;

  /// Stateless tickets: each resumed handshake opens and re-seals a
  /// ticket, each full handshake seals one (AES-CCM over the blob). The
  /// CCM work is billed in MIPS and in the session's energy.
  bool tickets = false;

  /// Sharded tier: `shards` cores behind a uniform connection hash with
  /// an epoch-barrier merge every `slice_us` simulated microseconds.
  /// 0 = one event loop, no barrier.
  std::size_t shards = 0;
  double slice_us = 1'000;

  /// Failover burst (shards >= 1): when one shard dies, its
  /// `reconnect_sessions` re-establish on the survivors by ticket within
  /// `blackout_s` seconds.
  double reconnect_sessions = 0;
  double blackout_s = 0;
};

/// How a processor's MIPS and energy budget fare against a served load,
/// carried by one ServingTier. Fields of a tier feature the tier does not
/// use stay zero.
struct ServingGapReport {
  // Host plane.
  double handshake_mips = 0;  // RSA set-up cost (0 when offloaded)
  double bulk_mips = 0;       // bulk protection cost of the data rate
  double ticket_open_mips = 0;  // CCM opens + re-seals, resumed rate
  double ticket_seal_mips = 0;  // NewSessionTicket seals, full rate
  double required_mips = 0;
  double available_mips = 0;
  double gap_ratio = 0;  // required / available; > 1 means infeasible
  double session_mj = 0;  // processing energy per average session
  double sessions_per_charge = 0;

  // Offload lanes (lanes > 0): each lane is a fixed-rate server;
  // lane_utilisation > 1 means the full-handshake rate outruns it.
  double effective_op_s = 0;     // per-op lane seconds at full windows
  double lane_utilisation = 0;   // full rate * effective_op_s / lanes
  double throughput_gain = 0;    // lane_op_s / effective_op_s (>= 1)
  double min_lanes = 0;          // smallest feasible lane count

  // Sharded tier (shards >= 1), against ONE core of the processor.
  double merge_overhead_mips = 0;      // per-core barrier cost
  double per_shard_required_mips = 0;  // required / shards + merge
  double shard_utilisation = 0;        // per-shard demand / core MIPS
  /// Smallest shard count whose per-core demand fits one core; 0 when the
  /// merge overhead alone exceeds the core.
  double min_shards = 0;

  // One shard lost (shards >= 1): its 1/N of the demand and the
  // resumption burst land on the N - 1 survivors.
  double degraded_required_mips = 0;
  double degraded_utilisation = 0;  // vs one core's MIPS
  double burst_mips = 0;            // whole burst over blackout_s
  double crash_energy_mj = 0;       // burst as ticket resumptions
  double crash_energy_full_mj = 0;  // counterfactual: full RSA handshakes
  double ticket_saving_ratio = 0;   // full / ticket energy
};

/// Price a served load carried by `tier` against `proc`: the measured
/// serving rates tied back to the Figure 3 gap (MIPS) and the Figure 4
/// battery argument (sessions per 26 kJ charge), for the paper's
/// reference protocol (RSA-1024 set-up, 3DES/SHA-1 bulk). Resumed
/// handshakes cost no public-key op — that saving is exactly why
/// resumption matters on an appliance budget.
ServingGapReport serving_gap(const WorkloadModel& model,
                             const Processor& proc, const ServedLoad& load,
                             const ServingTier& tier = {});

/// Projection of the gap over time — Section 3.2's closing argument:
/// "the increase in data rates ... and the use of stronger cryptographic
/// algorithms ... threaten to further widen the wireless security
/// processing gap" even as processors improve.
struct GapTrendAssumptions {
  double processor_growth = 1.35;   // embedded MIPS per year (Moore-ish)
  double data_rate_growth = 1.60;   // WLAN generation cadence
  double crypto_strength_growth = 1.10;  // instr/byte creep (longer keys,
                                         // stronger ciphers)
};

struct GapTrendPoint {
  int year = 0;
  double available_mips = 0;
  double required_mips = 0;
  /// required / available: > 1 means the gap is open.
  double gap_ratio = 0;
};

/// Project `years` years forward from a base processor and operating
/// point (1 s connection latency assumed).
std::vector<GapTrendPoint> project_gap_trend(
    const GapAnalysis& gap, const Processor& base_processor,
    double base_mbps, int base_year, int years,
    const GapTrendAssumptions& assumptions = {});

}  // namespace mapsec::platform
