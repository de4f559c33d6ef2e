// Platform models: paper-anchor checks (the Section 3.2 / 3.3 numbers) and
// model invariants.
#include <gtest/gtest.h>

#include <cmath>

#include "mapsec/platform/accelerator.hpp"
#include "mapsec/platform/energy.hpp"
#include "mapsec/platform/gap.hpp"
#include "mapsec/platform/processor.hpp"
#include "mapsec/platform/workload.hpp"

namespace mapsec::platform {
namespace {

// ---- processors -------------------------------------------------------------

TEST(ProcessorTest, PaperCatalogueRatings) {
  EXPECT_NEAR(Processor::pentium4().mips, 2890, 1e-9);
  EXPECT_NEAR(Processor::strongarm_sa1100().mips, 235, 1e-9);
  EXPECT_NEAR(Processor::dragonball().mips, 2.7, 1e-9);
  const double arm7 = Processor::arm7().mips;
  EXPECT_GE(arm7, 15.0);  // paper: "15 to 20 MIPS"
  EXPECT_LE(arm7, 20.0);
}

TEST(ProcessorTest, TimeAndEnergyScale) {
  const Processor p = Processor::strongarm_sa1100();
  EXPECT_NEAR(p.seconds_for(235e6), 1.0, 1e-9);
  EXPECT_NEAR(p.millijoules_for(1e6), p.mj_per_mi, 1e-12);
}

TEST(ProcessorTest, CatalogueOrderedByMips) {
  const auto cat = Processor::catalogue();
  for (std::size_t i = 1; i < cat.size(); ++i)
    EXPECT_LT(cat[i - 1].mips, cat[i].mips);
}

// ---- workload anchors --------------------------------------------------------

TEST(WorkloadTest, Anchor651MipsAt10Mbps) {
  // Section 3.2: "total processing requirements for a security protocol
  // that uses 3DES ... and SHA ... at 10 Mbps is around 651.3 MIPS".
  const auto m = WorkloadModel::paper_calibrated();
  EXPECT_NEAR(m.bulk_mips(Primitive::kDes3, Primitive::kSha1, 10.0), 651.3,
              0.1);
}

TEST(WorkloadTest, AnchorHandshakeFeasibility) {
  // Section 3.2: a 235-MIPS processor can establish connections at 0.5 s
  // or 1 s latency, but not at 0.1 s.
  const auto m = WorkloadModel::paper_calibrated();
  const double sa1100 = Processor::strongarm_sa1100().mips;
  EXPECT_LE(m.handshake_mips(Primitive::kRsa1024Private, 0.5), sa1100);
  EXPECT_LE(m.handshake_mips(Primitive::kRsa1024Private, 1.0), sa1100);
  EXPECT_GT(m.handshake_mips(Primitive::kRsa1024Private, 0.1), sa1100);
}

TEST(WorkloadTest, Des3IsTripleDes) {
  const auto m = WorkloadModel::paper_calibrated();
  EXPECT_NEAR(m.instr_per_byte(Primitive::kDes3),
              3 * m.instr_per_byte(Primitive::kDes), 1e-9);
}

TEST(WorkloadTest, RsaScalesCubically) {
  const auto m = WorkloadModel::paper_calibrated();
  EXPECT_NEAR(m.instr_per_op(Primitive::kRsa2048Private) /
                  m.instr_per_op(Primitive::kRsa1024Private),
              8.0, 1e-9);
  EXPECT_NEAR(m.instr_per_op(Primitive::kRsa1024Private) /
                  m.instr_per_op(Primitive::kRsa512Private),
              8.0, 1e-9);
}

TEST(WorkloadTest, AesCheaperThanDes3) {
  // The Figure 2 story: AES replaced DES/3DES partly on efficiency.
  const auto m = WorkloadModel::paper_calibrated();
  EXPECT_LT(m.instr_per_byte(Primitive::kAes128),
            m.instr_per_byte(Primitive::kDes3) / 5);
}

TEST(WorkloadTest, RequiredMipsDecomposes) {
  const auto m = WorkloadModel::paper_calibrated();
  const double total = m.required_mips(0.5, 10.0);
  EXPECT_NEAR(total,
              m.handshake_mips(Primitive::kRsa1024Private, 0.5) +
                  m.bulk_mips(Primitive::kDes3, Primitive::kSha1, 10.0),
              1e-9);
}

TEST(WorkloadTest, ErrorsOnMissingCostsAndBadArgs) {
  const auto m = WorkloadModel::paper_calibrated();
  EXPECT_THROW(m.instr_per_byte(Primitive::kRsa1024Private),
               std::invalid_argument);
  EXPECT_THROW(m.instr_per_op(Primitive::kDes3), std::invalid_argument);
  EXPECT_THROW(m.handshake_mips(Primitive::kRsa1024Private, 0.0),
               std::invalid_argument);
}

TEST(WorkloadTest, OverridesApply) {
  auto m = WorkloadModel::paper_calibrated();
  m.set_instr_per_byte(Primitive::kAes128, 99.0);
  EXPECT_NEAR(m.instr_per_byte(Primitive::kAes128), 99.0, 1e-12);
}

// ---- energy / battery (Figure 4) ---------------------------------------------

TEST(EnergyTest, PaperConstants) {
  const auto e = EnergyModel::paper_sensor_node();
  EXPECT_NEAR(e.tx_mj_per_kb, 21.5, 1e-12);
  EXPECT_NEAR(e.rx_mj_per_kb, 14.3, 1e-12);
  EXPECT_NEAR(e.crypto_mj_per_kb, 42.0, 1e-12);
}

TEST(EnergyTest, Figure4SecureModeHalvesTransactions) {
  // The paper's claim: secure-mode transactions are "less than half" the
  // unencrypted count on a 26 KJ battery.
  const auto e = EnergyModel::paper_sensor_node();
  const double plain = transactions_per_charge(e, 26.0, 1.0, false);
  const double secure = transactions_per_charge(e, 26.0, 1.0, true);
  EXPECT_LT(secure, plain / 2);
  EXPECT_GT(secure, plain / 3);  // but not catastrophically less
  EXPECT_NEAR(plain, 26e6 / 35.8, 1.0);
  EXPECT_NEAR(secure, 26e6 / 77.8, 1.0);
}

TEST(BatteryTest, ConsumeAndDeplete) {
  Battery b(0.001);  // 1 J = 1000 mJ
  EXPECT_NEAR(b.capacity_mj(), 1000.0, 1e-9);
  EXPECT_TRUE(b.consume_mj(400));
  EXPECT_NEAR(b.state_of_charge(), 0.6, 1e-9);
  EXPECT_TRUE(b.consume_mj(600));
  EXPECT_TRUE(b.depleted());
  EXPECT_FALSE(b.consume_mj(1));
  b.recharge();
  EXPECT_NEAR(b.remaining_mj(), 1000.0, 1e-9);
}

TEST(BatteryTest, StepSimulationMatchesClosedForm) {
  const auto e = EnergyModel::paper_sensor_node();
  Battery b(0.01);  // 10 J, small enough to loop
  std::size_t count = 0;
  while (b.consume_mj(e.transaction_mj(1.0, true))) ++count;
  EXPECT_EQ(count, static_cast<std::size_t>(
                       transactions_per_charge(e, 0.01, 1.0, true)));
}

TEST(BatteryTest, InvalidArguments) {
  EXPECT_THROW(Battery(0), std::invalid_argument);
  Battery b(1);
  EXPECT_THROW(b.consume_mj(-1), std::invalid_argument);
}

// ---- rate-capacity battery -------------------------------------------------------

TEST(RateCapacityBatteryTest, IdealCellAtOrBelowReferenceRate) {
  const RateCapacityBattery b(26.0, 100.0, 1.2);
  EXPECT_NEAR(b.effective_capacity_mj(100.0), 26e6, 1.0);
  // Slower than reference: rated capacity, no bonus.
  EXPECT_NEAR(b.effective_capacity_mj(10.0), 26e6, 1.0);
}

TEST(RateCapacityBatteryTest, HighRateCostsCapacity) {
  const RateCapacityBattery b(26.0, 100.0, 1.2);
  const double at_ref = b.effective_capacity_mj(100.0);
  const double at_10x = b.effective_capacity_mj(1000.0);
  EXPECT_LT(at_10x, at_ref);
  // Peukert 1.2 at 10x rate: factor 10^-0.2 ~ 0.63.
  EXPECT_NEAR(at_10x / at_ref, std::pow(10.0, -0.2), 1e-9);
}

TEST(RateCapacityBatteryTest, PeukertOneIsIdeal) {
  const RateCapacityBattery b(26.0, 100.0, 1.0);
  EXPECT_NEAR(b.effective_capacity_mj(100.0),
              b.effective_capacity_mj(5000.0), 1.0);
}

TEST(RateCapacityBatteryTest, LifetimeScalesInversely) {
  const RateCapacityBattery b(26.0, 100.0, 1.0);  // ideal for clean math
  EXPECT_NEAR(b.lifetime_hours(100.0), 26e6 / 100.0 / 3600.0, 1e-6);
  EXPECT_NEAR(b.lifetime_hours(200.0), b.lifetime_hours(100.0) / 2, 1e-6);
}

TEST(RateCapacityBatteryTest, SmoothBeatsBurstyAtEqualAverage) {
  // Same average power (200 mW), delivered either smoothly or as 10%-duty
  // 2 W bursts: the bursty profile must live strictly shorter on a
  // rate-sensitive cell — the argument for offloading crypto to
  // low-power engines rather than sprinting on the CPU.
  const RateCapacityBattery b(26.0, 200.0, 1.2);
  const double smooth = b.lifetime_hours(200.0);
  const double bursty = b.lifetime_hours_duty_cycle(2000.0, 0.0, 0.1);
  EXPECT_LT(bursty, smooth);
  // With an ideal cell the two are identical.
  const RateCapacityBattery ideal(26.0, 200.0, 1.0);
  EXPECT_NEAR(ideal.lifetime_hours_duty_cycle(2000.0, 0.0, 0.1),
              ideal.lifetime_hours(200.0), 1e-6);
}

TEST(RateCapacityBatteryTest, Validation) {
  EXPECT_THROW(RateCapacityBattery(0, 100, 1.2), std::invalid_argument);
  EXPECT_THROW(RateCapacityBattery(26, 100, 0.9), std::invalid_argument);
  const RateCapacityBattery b(26.0, 100.0, 1.2);
  EXPECT_THROW(b.effective_capacity_mj(0), std::invalid_argument);
  EXPECT_THROW(b.lifetime_hours_duty_cycle(100, 0, 1.5),
               std::invalid_argument);
  EXPECT_THROW(b.lifetime_hours_duty_cycle(0, 0, 0.5),
               std::invalid_argument);
}

// ---- gap analysis (Figure 3) ---------------------------------------------------

TEST(GapTest, SurfaceShape) {
  const GapAnalysis gap(WorkloadModel::paper_calibrated());
  const auto points =
      gap.surface(GapAnalysis::default_latencies(), GapAnalysis::default_rates());
  EXPECT_EQ(points.size(), 30u);
  // Requirement decreases with latency, increases with rate.
  for (const auto& p : points) {
    EXPECT_NEAR(p.required_mips, p.handshake_mips + p.bulk_mips, 1e-9);
    EXPECT_GT(p.required_mips, 0);
  }
}

TEST(GapTest, MonotonicInAxes) {
  const GapAnalysis gap(WorkloadModel::paper_calibrated());
  const auto pts = gap.surface({0.1, 1.0}, {1.0, 10.0});
  // pts: (0.1,1), (0.1,10), (1,1), (1,10)
  EXPECT_GT(pts[0].required_mips, pts[2].required_mips);  // lower latency costs more
  EXPECT_GT(pts[1].required_mips, pts[0].required_mips);  // higher rate costs more
}

TEST(GapTest, PaperGapExistsFor300MipsPlane) {
  // Figure 3's qualitative content: a large region of the surface lies
  // above the 300-MIPS plane (the gap), but not all of it.
  const GapAnalysis gap(WorkloadModel::paper_calibrated());
  const auto points = gap.surface(GapAnalysis::default_latencies(),
                                  GapAnalysis::default_rates());
  const auto summary = gap.summarise(Processor::embedded300(), points);
  EXPECT_GT(summary.feasible_points, 0u);
  EXPECT_LT(summary.feasible_points, summary.total_points);
}

TEST(GapTest, DesktopClosesMostOfTheGap) {
  const GapAnalysis gap(WorkloadModel::paper_calibrated());
  const auto points = gap.surface(GapAnalysis::default_latencies(),
                                  GapAnalysis::default_rates());
  const auto p4 = gap.summarise(Processor::pentium4(), points);
  const auto dragonball = gap.summarise(Processor::dragonball(), points);
  EXPECT_GT(p4.feasible_points, points.size() * 3 / 4);
  EXPECT_EQ(dragonball.feasible_points, 0u);  // 2.7 MIPS: hopeless
}

TEST(GapTest, MaxRateInversion) {
  const GapAnalysis gap(WorkloadModel::paper_calibrated());
  const Processor sa = Processor::strongarm_sa1100();
  const double max_rate = gap.max_rate_mbps(sa, 1.0);
  EXPECT_GT(max_rate, 0);
  // At that rate the requirement equals the processor's MIPS.
  const auto pts = gap.surface({1.0}, {max_rate});
  EXPECT_NEAR(pts[0].required_mips, sa.mips, 0.01);
  // Handshake-infeasible latency yields zero achievable rate.
  EXPECT_EQ(gap.max_rate_mbps(Processor::dragonball(), 0.1), 0.0);
}

// ---- gap trend projection ---------------------------------------------------------

TEST(GapTrendTest, GapWidensUnderPaperAssumptions) {
  // Section 3.2: data-rate and crypto-strength growth outpace embedded
  // processor improvement, so the gap ratio increases year over year.
  const GapAnalysis gap(WorkloadModel::paper_calibrated());
  const auto trend = project_gap_trend(gap, Processor::strongarm_sa1100(),
                                       2.0, 2003, 7);
  ASSERT_EQ(trend.size(), 8u);
  EXPECT_EQ(trend.front().year, 2003);
  EXPECT_EQ(trend.back().year, 2010);
  for (std::size_t i = 1; i < trend.size(); ++i)
    EXPECT_GT(trend[i].gap_ratio, trend[i - 1].gap_ratio) << i;
}

TEST(GapTrendTest, FasterProcessorsCanCloseIt) {
  const GapAnalysis gap(WorkloadModel::paper_calibrated());
  GapTrendAssumptions optimistic;
  optimistic.processor_growth = 2.0;  // outruns rates * strength
  const auto trend = project_gap_trend(gap, Processor::strongarm_sa1100(),
                                       2.0, 2003, 7, optimistic);
  EXPECT_LT(trend.back().gap_ratio, trend.front().gap_ratio);
}

TEST(GapTrendTest, PointArithmetic) {
  const GapAnalysis gap(WorkloadModel::paper_calibrated());
  const auto trend =
      project_gap_trend(gap, Processor::embedded300(), 10.0, 2003, 0);
  ASSERT_EQ(trend.size(), 1u);
  EXPECT_NEAR(trend[0].available_mips, 300.0, 1e-9);
  EXPECT_NEAR(trend[0].required_mips,
              gap.model().required_mips(1.0, 10.0), 1e-9);
  EXPECT_NEAR(trend[0].gap_ratio,
              trend[0].required_mips / 300.0, 1e-12);
}

// ---- acceleration tiers (Section 4.2) -----------------------------------------

TEST(AccelTest, TiersStrictlyImprove) {
  auto model = WorkloadModel::paper_calibrated();
  model.set_protocol_instr_per_byte(25.0);
  const Processor host = Processor::strongarm_sa1100();
  double prev_rate = 0;
  double prev_energy = 1e18;
  for (const auto& profile : AccelProfile::all_tiers()) {
    const SecurityPlatform plat(host, profile, model);
    const double rate =
        plat.achievable_mbps(Primitive::kDes3, Primitive::kSha1);
    const double energy =
        plat.bulk_energy_mj(Primitive::kDes3, Primitive::kSha1, 1e6);
    EXPECT_GT(rate, prev_rate) << accel_tier_name(profile.tier);
    EXPECT_LT(energy, prev_energy) << accel_tier_name(profile.tier);
    prev_rate = rate;
    prev_energy = energy;
  }
}

TEST(AccelTest, SoftwareTierMatchesWorkloadModel) {
  const auto model = WorkloadModel::paper_calibrated();
  const SecurityPlatform plat(Processor::strongarm_sa1100(),
                              AccelProfile::software(), model);
  // Achievable rate inverts bulk_mips: at that rate, required == MIPS.
  const double rate = plat.achievable_mbps(Primitive::kDes3, Primitive::kSha1);
  EXPECT_NEAR(model.bulk_mips(Primitive::kDes3, Primitive::kSha1, rate),
              235.0, 0.01);
}

TEST(AccelTest, ProtocolEngineBeatsAcceleratorOnProtocolBoundWorkload) {
  // Section 4.2.3's argument: once ciphers are accelerated, protocol
  // processing dominates; only the protocol engine removes it.
  auto model = WorkloadModel::paper_calibrated();
  model.set_protocol_instr_per_byte(50.0);
  const Processor host = Processor::strongarm_sa1100();
  const SecurityPlatform accel(host, AccelProfile::crypto_accelerator(),
                               model);
  const SecurityPlatform engine(host, AccelProfile::protocol_engine(), model);
  const double r_accel = accel.achievable_mbps(Primitive::kRc4, Primitive::kMd5);
  const double r_engine =
      engine.achievable_mbps(Primitive::kRc4, Primitive::kMd5);
  EXPECT_GT(r_engine, r_accel * 3);  // dominated by protocol offload
}

TEST(AccelTest, DspTierSitsBetweenIsaAndAccelerator) {
  // The OMAP dual-core story: better than instruction tweaks, short of
  // dedicated silicon.
  const auto model = WorkloadModel::paper_calibrated();
  const Processor host = Processor::strongarm_sa1100();
  const SecurityPlatform isa(host, AccelProfile::isa_extension(), model);
  const SecurityPlatform dsp(host, AccelProfile::dsp_offload(), model);
  const SecurityPlatform acc(host, AccelProfile::crypto_accelerator(), model);
  const auto rate = [&](const SecurityPlatform& p) {
    return p.achievable_mbps(Primitive::kDes3, Primitive::kSha1);
  };
  EXPECT_GT(rate(dsp), rate(isa));
  EXPECT_LT(rate(dsp), rate(acc));
  EXPECT_EQ(accel_tier_name(AccelTier::kDspOffload), "DSP-offload");
}

TEST(AccelTest, HandshakeLatencyImproves) {
  const auto model = WorkloadModel::paper_calibrated();
  const Processor host = Processor::strongarm_sa1100();
  const SecurityPlatform sw(host, AccelProfile::software(), model);
  const SecurityPlatform hw(host, AccelProfile::crypto_accelerator(), model);
  const double sw_lat = sw.handshake_latency_s(Primitive::kRsa1024Private);
  const double hw_lat = hw.handshake_latency_s(Primitive::kRsa1024Private);
  EXPECT_NEAR(sw_lat, 56e6 / 235e6, 1e-6);
  EXPECT_LT(hw_lat, sw_lat / 10);
}

TEST(AccelTest, UtilisationScalesLinearly) {
  const auto model = WorkloadModel::paper_calibrated();
  const SecurityPlatform plat(Processor::strongarm_sa1100(),
                              AccelProfile::software(), model);
  const double full = plat.achievable_mbps(Primitive::kAes128, Primitive::kSha1, 1.0);
  const double half = plat.achievable_mbps(Primitive::kAes128, Primitive::kSha1, 0.5);
  EXPECT_NEAR(half, full / 2, 1e-9);
}

TEST(AccelTest, AcceleratedModelScalesCostsByClass) {
  const auto base = WorkloadModel::paper_calibrated();
  const AccelProfile accel = AccelProfile::isa_dispatch(6.0, 4.0, 1.2);
  const auto fast = accelerated_model(base, accel);
  EXPECT_NEAR(fast.instr_per_byte(Primitive::kAes128),
              base.instr_per_byte(Primitive::kAes128) / 6.0, 1e-9);
  EXPECT_NEAR(fast.instr_per_byte(Primitive::kSha1),
              base.instr_per_byte(Primitive::kSha1) / 4.0, 1e-9);
  EXPECT_NEAR(fast.instr_per_op(Primitive::kRsa1024Private),
              base.instr_per_op(Primitive::kRsa1024Private) / 1.2, 1e-6);
  // ISA dispatch does not offload the per-packet protocol component.
  EXPECT_NEAR(fast.protocol_instr_per_byte(), base.protocol_instr_per_byte(),
              1e-9);
  // Software profile is the identity.
  const auto same = accelerated_model(base, AccelProfile::software());
  EXPECT_NEAR(same.instr_per_byte(Primitive::kDes3),
              base.instr_per_byte(Primitive::kDes3), 1e-9);
}

TEST(AccelTest, AcceleratedServingGapNarrowsAndSavesEnergy) {
  const auto model = WorkloadModel::paper_calibrated();
  const Processor proc = Processor::strongarm_sa1100();
  ServedLoad load;
  load.full_handshakes_per_s = 2.0;
  load.resumed_handshakes_per_s = 6.0;
  load.bulk_mbps = 4.0;
  load.sessions_per_s = 8.0;
  load.avg_session_kb = 64.0;

  const ServingGapReport base = serving_gap(model, proc, load);
  const ServingGapReport fast =
      serving_gap(model, proc, load, {.accel = AccelProfile::isa_dispatch()});
  EXPECT_GT(base.gap_ratio, 0);
  EXPECT_LT(fast.gap_ratio, base.gap_ratio);
  EXPECT_LT(fast.bulk_mips, base.bulk_mips);
  EXPECT_LT(fast.handshake_mips, base.handshake_mips);
  EXPECT_LT(fast.session_mj, base.session_mj);
  EXPECT_GT(fast.sessions_per_charge, base.sessions_per_charge);
  EXPECT_EQ(fast.available_mips, base.available_mips);

  // A tier that accelerates nothing must reproduce the base report.
  const ServingGapReport same =
      serving_gap(model, proc, load, {.accel = AccelProfile::software()});
  EXPECT_NEAR(same.gap_ratio, base.gap_ratio, 1e-12);
  EXPECT_NEAR(same.session_mj, base.session_mj, 1e-12);
}

TEST(AccelTest, ShardedServingGapSplitsLoadAndChargesBarrierTax) {
  const auto model = WorkloadModel::paper_calibrated();
  const Processor proc = Processor::strongarm_sa1100();
  ServedLoad load;
  load.full_handshakes_per_s = 20.0;
  load.bulk_mbps = 8.0;
  load.sessions_per_s = 24.0;
  load.avg_session_kb = 64.0;

  // 1000 merges/s at 2000 instr each = 2 MIPS of barrier tax per shard.
  const ServingGapReport four =
      serving_gap(model, proc, load, {.shards = 4, .slice_us = 1'000});
  EXPECT_NEAR(four.merge_overhead_mips, 2.0, 1e-9);
  EXPECT_NEAR(four.per_shard_required_mips,
              four.required_mips / 4.0 + 2.0, 1e-9);
  EXPECT_NEAR(four.shard_utilisation,
              four.per_shard_required_mips / proc.mips, 1e-12);

  // One shard pays the same tax but carries the whole fleet.
  const ServingGapReport one =
      serving_gap(model, proc, load, {.shards = 1, .slice_us = 1'000});
  EXPECT_NEAR(one.per_shard_required_mips,
              one.required_mips + 2.0, 1e-9);
  EXPECT_GT(one.shard_utilisation, four.shard_utilisation);

  // min_shards: ceil(required / (mips - tax)), at least 1.
  const double headroom = proc.mips - 2.0;
  EXPECT_NEAR(four.min_shards,
              std::ceil(four.required_mips / headroom), 1e-9);
  EXPECT_GE(four.min_shards, 1.0);

  // Coarser slices shrink the tax.
  const ServingGapReport coarse =
      serving_gap(model, proc, load, {.shards = 4, .slice_us = 10'000});
  EXPECT_NEAR(coarse.merge_overhead_mips, 0.2, 1e-9);
  EXPECT_LT(coarse.per_shard_required_mips, four.per_shard_required_mips);
}


// ---- serving-gap golden pins ------------------------------------------------
//
// Every field each pricing report carries, on two fixed served loads: a
// resumption-heavy bulk load (A) and a handshake-bound fleet (B). Values
// are pinned to 1e-12 relative, so a refactor of the pricing arithmetic
// that moves any output by more than rounding fails here.

ServedLoad golden_load(int which) {
  ServedLoad l;
  if (which == 0) {
    l.full_handshakes_per_s = 2;
    l.resumed_handshakes_per_s = 6;
    l.bulk_mbps = 4;
    l.sessions_per_s = 8;
    l.avg_session_kb = 64;
  } else {
    l.full_handshakes_per_s = 40;
    l.resumed_handshakes_per_s = 120;
    l.bulk_mbps = 2;
    l.sessions_per_s = 160;
    l.avg_session_kb = 4;
  }
  return l;
}

void expect_pinned(double actual, double golden, const char* field) {
  const double tol = golden == 0 ? 1e-12 : std::abs(golden) * 1e-12;
  EXPECT_NEAR(actual, golden, tol) << field;
}

/// The host-plane fields, in ServingGapReport order.
struct HostPins {
  double handshake_mips, bulk_mips, required_mips, available_mips, gap_ratio,
      session_mj, sessions_per_charge;
};

void expect_host(const ServingGapReport& r, const HostPins& g) {
  expect_pinned(r.handshake_mips, g.handshake_mips, "handshake_mips");
  expect_pinned(r.bulk_mips, g.bulk_mips, "bulk_mips");
  expect_pinned(r.required_mips, g.required_mips, "required_mips");
  expect_pinned(r.available_mips, g.available_mips, "available_mips");
  expect_pinned(r.gap_ratio, g.gap_ratio, "gap_ratio");
  expect_pinned(r.session_mj, g.session_mj, "session_mj");
  expect_pinned(r.sessions_per_charge, g.sessions_per_charge,
                "sessions_per_charge");
}

constexpr HostPins kSoftware[2] = {
    {112, 260.51999999999998, 372.51999999999998, 235, 1.5851914893617021,
     81.84969164799999, 317655.44226867362},
    {2240, 130.25999999999999, 2370.2600000000002, 235, 10.086212765957448,
     27.428105728000002, 947932.76130104309}};
// Offloaded pk: the host sheds the handshake term; the pk energy is
// billed at the accelerator's 10x efficiency.
constexpr HostPins kOffloadHost[2] = {
    {0, 260.51999999999998, 260.51999999999998, 235, 1.108595744680851,
     60.429691647999995, 430252.07130707748},
    {0, 130.25999999999999, 130.25999999999999, 235, 0.55429787234042549,
     6.0081057279999994, 4327487.0944481492}};

TEST(ServingGapGolden, Software) {
  const auto model = WorkloadModel::paper_calibrated();
  for (int i = 0; i < 2; ++i)
    expect_host(serving_gap(model, Processor::strongarm_sa1100(),
                            golden_load(i)),
                kSoftware[i]);
}

TEST(ServingGapGolden, IsaDispatch) {
  constexpr HostPins kIsa[2] = {
      {101.81818181818181, 46.920000000000002, 148.73818181818183, 235,
       0.63292843326885884, 16.369938329599997, 1588277.2113433683},
      {2036.3636363636363, 23.460000000000001, 2059.8236363636361, 235,
       8.7652069632495149, 5.4856211456000006, 4739663.8065052154}};
  const auto model = WorkloadModel::paper_calibrated();
  for (int i = 0; i < 2; ++i)
    expect_host(serving_gap(model, Processor::strongarm_sa1100(),
                            golden_load(i),
                            {.accel = AccelProfile::isa_dispatch()}),
                kIsa[i]);
}

TEST(ServingGapGolden, Offloaded) {
  const auto model = WorkloadModel::paper_calibrated();
  for (int i = 0; i < 2; ++i) {
    const ServingGapReport r =
        serving_gap(model, Processor::strongarm_sa1100(), golden_load(i),
                    {.lanes = 2, .lane_op_s = 0.004});
    expect_host(r, kOffloadHost[i]);
    expect_pinned(r.effective_op_s, 0.004, "effective_op_s");
    expect_pinned(r.lane_utilisation, i == 0 ? 0.004 : 0.08,
                  "lane_utilisation");
    expect_pinned(r.throughput_gain, 1, "throughput_gain");
    expect_pinned(r.min_lanes, 1, "min_lanes");
  }
}

TEST(ServingGapGolden, Batched) {
  const auto model = WorkloadModel::paper_calibrated();
  for (int i = 0; i < 2; ++i) {
    const ServingGapReport r = serving_gap(
        model, Processor::strongarm_sa1100(), golden_load(i),
        {.lanes = 2, .lane_op_s = 0.004, .batch_width = 4,
         .batch_marginal = 0.3});
    // Batching moves lane occupancy only; the host plane is the
    // width-1 offload's.
    expect_host(r, kOffloadHost[i]);
    expect_pinned(r.effective_op_s, 0.0019, "effective_op_s");
    expect_pinned(r.lane_utilisation, i == 0 ? 0.0019 : 0.038,
                  "lane_utilisation");
    expect_pinned(r.throughput_gain, 2.1052631578947367, "throughput_gain");
    expect_pinned(r.min_lanes, 1, "min_lanes");
  }
}

TEST(ServingGapGolden, Ticket) {
  // The ticket tier adds the CCM open/seal work to the host plane and to
  // the session's energy bill: per session, a quarter full handshake
  // seals one ticket and three quarters resumed ones open and re-seal
  // one, (0.25 + 2 * 0.75) * 5760 = 10080 instructions = 0.017136 mJ.
  constexpr HostPins kTicket[2] = {
      {112, 260.51999999999998, 372.60064, 235, 1.5855346382978723,
       81.866827647999997, 317588.95204528153},
      {2240, 130.25999999999999, 2371.8728000000001, 235, 10.093075744680851,
       27.445241727999999, 947340.90002473746}};
  const auto model = WorkloadModel::paper_calibrated();
  for (int i = 0; i < 2; ++i) {
    const ServingGapReport r = serving_gap(
        model, Processor::strongarm_sa1100(), golden_load(i),
        {.tickets = true});
    expect_host(r, kTicket[i]);
    expect_pinned(r.ticket_open_mips, i == 0 ? 0.06912 : 1.3824,
                  "ticket_open_mips");
    expect_pinned(r.ticket_seal_mips, i == 0 ? 0.01152 : 0.2304,
                  "ticket_seal_mips");
  }
}

TEST(ServingGapGolden, Sharded) {
  const auto model = WorkloadModel::paper_calibrated();
  for (int i = 0; i < 2; ++i) {
    const ServingGapReport r =
        serving_gap(model, Processor::strongarm_sa1100(), golden_load(i),
                    {.shards = 4, .slice_us = 1'000});
    expect_host(r, kSoftware[i]);
    expect_pinned(r.merge_overhead_mips, 2, "merge_overhead_mips");
    expect_pinned(r.per_shard_required_mips,
                  i == 0 ? 95.129999999999995 : 594.56500000000005,
                  "per_shard_required_mips");
    expect_pinned(r.shard_utilisation,
                  i == 0 ? 0.40480851063829787 : 2.5300638297872342,
                  "shard_utilisation");
    expect_pinned(r.min_shards, i == 0 ? 2 : 11, "min_shards");
  }
}

TEST(ServingGapGolden, Failover) {
  const auto model = WorkloadModel::paper_calibrated();
  for (int i = 0; i < 2; ++i) {
    const ServingGapReport r =
        serving_gap(model, Processor::strongarm_sa1100(), golden_load(i),
                    {.shards = 4, .slice_us = 1'000,
                     .reconnect_sessions = 150, .blackout_s = 0.25});
    expect_host(r, kSoftware[i]);
    expect_pinned(r.per_shard_required_mips,
                  i == 0 ? 95.129999999999995 : 594.56500000000005,
                  "per_shard_required_mips");
    expect_pinned(r.degraded_required_mips,
                  i == 0 ? 127.37333333333333 : 793.28666666666675,
                  "degraded_required_mips");
    expect_pinned(r.degraded_utilisation,
                  i == 0 ? 0.54201418439716309 : 3.3756879432624118,
                  "degraded_utilisation");
    expect_pinned(r.burst_mips, 3.6, "burst_mips");
    expect_pinned(r.crash_energy_mj, 1.53, "crash_energy_mj");
    expect_pinned(r.crash_energy_full_mj, 14'280, "crash_energy_full_mj");
    expect_pinned(r.ticket_saving_ratio, 9333.3333333333339,
                  "ticket_saving_ratio");
  }
}

}  // namespace
}  // namespace mapsec::platform
