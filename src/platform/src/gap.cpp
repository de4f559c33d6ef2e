#include "mapsec/platform/gap.hpp"

#include <algorithm>
#include <cmath>

namespace mapsec::platform {

GapAnalysis::GapAnalysis(WorkloadModel model) : model_(std::move(model)) {}

std::vector<GapPoint> GapAnalysis::surface(
    const std::vector<double>& latencies_s,
    const std::vector<double>& rates_mbps) const {
  std::vector<GapPoint> out;
  out.reserve(latencies_s.size() * rates_mbps.size());
  for (const double latency : latencies_s) {
    for (const double rate : rates_mbps) {
      GapPoint p;
      p.latency_s = latency;
      p.mbps = rate;
      p.handshake_mips =
          model_.handshake_mips(Primitive::kRsa1024Private, latency);
      p.bulk_mips = model_.bulk_mips(Primitive::kDes3, Primitive::kSha1, rate);
      p.required_mips = p.handshake_mips + p.bulk_mips;
      out.push_back(p);
    }
  }
  return out;
}

std::vector<double> GapAnalysis::default_latencies() {
  return {0.1, 0.5, 1.0};
}

std::vector<double> GapAnalysis::default_rates() {
  return {0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0};
}

PlaneSummary GapAnalysis::summarise(
    const Processor& proc, const std::vector<GapPoint>& points) const {
  PlaneSummary s;
  s.processor = proc;
  s.total_points = points.size();
  for (const auto& p : points)
    if (feasible(proc, p)) ++s.feasible_points;
  s.max_mbps_at_1s = max_rate_mbps(proc, 1.0);
  return s;
}

std::vector<GapTrendPoint> project_gap_trend(
    const GapAnalysis& gap, const Processor& base_processor,
    double base_mbps, int base_year, int years,
    const GapTrendAssumptions& assumptions) {
  std::vector<GapTrendPoint> out;
  out.reserve(static_cast<std::size_t>(years) + 1);
  double mips = base_processor.mips;
  double mbps = base_mbps;
  double strength = 1.0;
  for (int y = 0; y <= years; ++y) {
    GapTrendPoint p;
    p.year = base_year + y;
    p.available_mips = mips;
    // Stronger crypto multiplies the whole per-byte and per-op cost.
    p.required_mips = gap.model().required_mips(1.0, mbps) * strength;
    p.gap_ratio = p.required_mips / p.available_mips;
    out.push_back(p);
    mips *= assumptions.processor_growth;
    mbps *= assumptions.data_rate_growth;
    strength *= assumptions.crypto_strength_growth;
  }
  return out;
}

namespace {

// The paper's reference protocol and battery (Figures 3 and 4).
constexpr Primitive kPk = Primitive::kRsa1024Private;
constexpr Primitive kCipher = Primitive::kDes3;
constexpr Primitive kMac = Primitive::kSha1;
constexpr double kBatteryKj = 26.0;

// Serving-tier costs: one barrier snapshot exchange per core per slice;
// one failover resumption (CCM ticket open plus the abbreviated flight);
// the sealed ticket blob; and the offload accelerator's energy per
// instruction relative to the host (the paper's order-of-magnitude
// claim, AccelProfile::crypto_accelerator().energy_efficiency).
constexpr double kMergeInstrPerSlice = 2'000.0;
constexpr double kTicketOpenInstr = 6'000.0;
constexpr double kTicketWireBytes = 96.0;
constexpr double kAccelEnergyEfficiency = 10.0;

/// One ticket open or seal: CCM over the blob is two AES passes
/// (CBC-MAC, then CTR).
double ticket_ccm_instr(const WorkloadModel& model) {
  return 2.0 * model.instr_per_byte(Primitive::kAes128) * kTicketWireBytes;
}

}  // namespace

ServingGapReport serving_gap(const WorkloadModel& model,
                             const Processor& proc, const ServedLoad& load,
                             const ServingTier& tier) {
  ServingGapReport r;
  const bool offloaded = tier.lanes > 0;

  // MIPS side, on the tier's accelerated cost table. Each full handshake
  // spends one private-key op on the host unless it is offloaded;
  // resumed handshakes skip it (their symmetric cost is folded into the
  // bulk term, which measures all protected bytes). A ticket server
  // opens and re-seals a ticket per resumption and seals one per full
  // handshake.
  const WorkloadModel fast = accelerated_model(model, tier.accel);
  r.handshake_mips = offloaded ? 0.0
                               : load.full_handshakes_per_s *
                                     fast.instr_per_op(kPk) / 1e6;
  r.bulk_mips = load.bulk_mbps > 0
                    ? fast.bulk_mips(kCipher, kMac, load.bulk_mbps)
                    : 0.0;
  if (tier.tickets) {
    const double ccm = ticket_ccm_instr(fast);
    r.ticket_open_mips = load.resumed_handshakes_per_s * 2.0 * ccm / 1e6;
    r.ticket_seal_mips = load.full_handshakes_per_s * ccm / 1e6;
  }
  r.required_mips = r.handshake_mips + r.bulk_mips +
                    (r.ticket_open_mips + r.ticket_seal_mips);
  r.available_mips = proc.mips;
  r.gap_ratio = proc.mips > 0 ? r.required_mips / proc.mips : 0.0;

  // Battery tie-in (Figure 4's arithmetic over the same load): the
  // instructions of one average session, priced through the processor's
  // energy per instruction. The tier's energy_efficiency is defined
  // against the host running the UNaccelerated workload, so the bill
  // comes from the base model. A ticket server's CCM opens and seals are
  // part of the session, and an offloaded pk op still costs energy, at
  // the accelerator's efficiency.
  const double full_share =
      load.sessions_per_s > 0
          ? load.full_handshakes_per_s / load.sessions_per_s
          : 1.0;
  const double resumed_share =
      load.sessions_per_s > 0
          ? load.resumed_handshakes_per_s / load.sessions_per_s
          : 0.0;
  const double bulk_instr_per_kb = model.instr_per_byte(kCipher) * 1024.0 +
                                   model.instr_per_byte(kMac) * 1024.0;
  double host_instr = load.avg_session_kb * bulk_instr_per_kb;
  if (tier.tickets)
    host_instr +=
        (full_share + 2.0 * resumed_share) * ticket_ccm_instr(model);
  if (!offloaded)
    host_instr = full_share * model.instr_per_op(kPk) + host_instr;
  const double efficiency =
      tier.accel.energy_efficiency > 0 ? tier.accel.energy_efficiency : 1.0;
  r.session_mj = proc.millijoules_for(host_instr) / efficiency;
  if (offloaded)
    r.session_mj += full_share * proc.millijoules_for(model.instr_per_op(kPk)) /
                    kAccelEnergyEfficiency;
  r.sessions_per_charge =
      r.session_mj > 0 ? kBatteryKj * 1e6 / r.session_mj : 0.0;

  // Offload lanes as fixed-rate servers. A full window of W jobs occupies
  // the lane for lane_op_s * (1 + (W - 1) * m) seconds — W ops for
  // barely more than one op's slot when m is small.
  if (offloaded) {
    const double width =
        static_cast<double>(tier.batch_width == 0 ? 1 : tier.batch_width);
    r.effective_op_s =
        tier.lane_op_s * (1.0 + (width - 1.0) * tier.batch_marginal) / width;
    const double demand_lane_s = load.full_handshakes_per_s * r.effective_op_s;
    r.lane_utilisation = demand_lane_s / static_cast<double>(tier.lanes);
    r.throughput_gain =
        r.effective_op_s > 0 ? tier.lane_op_s / r.effective_op_s : 1.0;
    r.min_lanes = std::ceil(demand_lane_s);
  }

  if (tier.shards == 0) return r;

  // Sharded tier: the fleet demand split across the cores, plus the
  // barrier tax every core pays once per slice however many share it.
  const double shards = static_cast<double>(tier.shards);
  const double slices_per_s = tier.slice_us > 0 ? 1e6 / tier.slice_us : 0.0;
  r.merge_overhead_mips = slices_per_s * kMergeInstrPerSlice / 1e6;
  r.per_shard_required_mips =
      r.required_mips / shards + r.merge_overhead_mips;
  r.shard_utilisation =
      proc.mips > 0 ? r.per_shard_required_mips / proc.mips : 0.0;
  const double headroom = proc.mips - r.merge_overhead_mips;
  r.min_shards =
      headroom > 0 ? std::max(1.0, std::ceil(r.required_mips / headroom))
                   : 0.0;

  // One shard lost: during the repair window its share of the demand and
  // the resumption burst land on the survivors. Tickets make each
  // re-establishment symmetric-only; the counterfactual (no resumption
  // state survives the crash) pays the full private-key op per session —
  // the paper's 42 mJ/KB worst case, at fleet scale.
  const double survivors = tier.shards > 1 ? shards - 1.0 : 1.0;
  const double burst_instr = tier.reconnect_sessions * kTicketOpenInstr;
  r.burst_mips =
      tier.blackout_s > 0 ? burst_instr / tier.blackout_s / 1e6 : 0.0;
  r.degraded_required_mips = r.required_mips / survivors +
                             r.merge_overhead_mips +
                             r.burst_mips / survivors;
  r.degraded_utilisation =
      proc.mips > 0 ? r.degraded_required_mips / proc.mips : 0.0;
  r.crash_energy_mj = proc.millijoules_for(burst_instr);
  r.crash_energy_full_mj = proc.millijoules_for(
      tier.reconnect_sessions * model.instr_per_op(kPk));
  r.ticket_saving_ratio = r.crash_energy_mj > 0
                              ? r.crash_energy_full_mj / r.crash_energy_mj
                              : 0.0;
  return r;
}

double GapAnalysis::max_rate_mbps(const Processor& proc,
                                  double latency_s) const {
  const double handshake =
      model_.handshake_mips(Primitive::kRsa1024Private, latency_s);
  const double headroom_mips = proc.mips - handshake;
  if (headroom_mips <= 0) return 0;
  // Invert bulk_mips: rate such that bulk requirement == headroom.
  const double per_mbps =
      model_.bulk_mips(Primitive::kDes3, Primitive::kSha1, 1.0);
  return headroom_mips / per_mbps;
}

}  // namespace mapsec::platform
