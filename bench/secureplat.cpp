// Experiment E13 — secure-platform costs: boot-chain verification,
// seal/unseal, monitor calls (with the world-switch overhead model), and
// the biometric FAR/FRR threshold sweep from Section 4.1's end-user
// authentication discussion.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_main.hpp"
#include "mapsec/analysis/table.hpp"
#include "mapsec/crypto/rng.hpp"
#include "mapsec/secureplat/keystore.hpp"
#include "mapsec/secureplat/secure_boot.hpp"
#include "mapsec/secureplat/secure_world.hpp"
#include "mapsec/secureplat/user_auth.hpp"

namespace {

using namespace mapsec;
using namespace mapsec::secureplat;

const crypto::RsaKeyPair& root_key() {
  static const crypto::RsaKeyPair kp = [] {
    crypto::HmacDrbg rng(0xB00);
    return crypto::rsa_generate(rng, 1024);
  }();
  return kp;
}

void BM_BootChainVerify(benchmark::State& state) {
  const std::size_t image_kb = static_cast<std::size_t>(state.range(0));
  crypto::HmacDrbg rng(1);
  const std::vector<BootImage> chain = {
      make_boot_image("loader", rng.bytes(image_kb * 1024), 1,
                      root_key().priv),
      make_boot_image("kernel", rng.bytes(image_kb * 1024 * 4), 1,
                      root_key().priv),
  };
  for (auto _ : state) {
    BootRom rom(root_key().pub);
    const BootReport report = rom.boot(chain);
    benchmark::DoNotOptimize(report.booted);
  }
}

void BM_KeyStoreSeal(benchmark::State& state) {
  crypto::HmacDrbg rng(2);
  KeyStore store(rng.bytes(32), &rng);
  const crypto::Bytes secret = rng.bytes(64);
  int i = 0;
  for (auto _ : state) {
    std::string name = "k";
    name += std::to_string(i++ % 16);
    SealedBlob blob = store.seal(name, secret);
    benchmark::DoNotOptimize(blob.tag.data());
  }
}

void BM_KeyStoreUnseal(benchmark::State& state) {
  crypto::HmacDrbg rng(3);
  KeyStore store(rng.bytes(32), &rng);
  const SealedBlob blob = store.seal("k", rng.bytes(64));
  crypto::Bytes out;
  for (auto _ : state) {
    const UnsealStatus status = store.unseal(blob, out);
    benchmark::DoNotOptimize(status);
  }
}

void BM_MonitorCallMac(benchmark::State& state) {
  crypto::HmacDrbg rng(4);
  PartitionedMemory memory;
  memory.add_region("secure_ram", 4096, true);
  SecureWorld tee(&memory, &rng);
  tee.call(MonitorCall::kGenerateKey, "k");
  const crypto::Bytes msg = rng.bytes(256);
  for (auto _ : state) {
    const MonitorResult r = tee.call(MonitorCall::kMac, "k", msg);
    benchmark::DoNotOptimize(r.ok);
  }
}

void BM_PinVerify(benchmark::State& state) {
  crypto::HmacDrbg rng(5);
  PinAuthenticator auth(crypto::to_bytes("1234"), &rng, 1000000);
  const crypto::Bytes pin = crypto::to_bytes("1234");
  for (auto _ : state) {
    const AuthResult r = auth.verify(pin);
    benchmark::DoNotOptimize(r);
  }
}

BENCHMARK(BM_BootChainVerify)->Arg(16)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_KeyStoreSeal);
BENCHMARK(BM_KeyStoreUnseal);
BENCHMARK(BM_MonitorCallMac);
BENCHMARK(BM_PinVerify);

void print_biometric_sweep() {
  std::puts("Biometric matcher threshold sweep (16-dim templates, genuine "
            "noise sigma=0.05):\n");
  crypto::HmacDrbg rng(6);
  const auto tpl = BiometricMatcher::enroll(rng, 16);
  analysis::Table t({"threshold", "FAR", "FRR"});
  for (const double threshold : {0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2}) {
    BiometricMatcher matcher(tpl, threshold);
    const auto rates = matcher.estimate_rates(rng, 2000, 0.05);
    t.add_row({analysis::fmt(threshold, 2),
               analysis::fmt(rates.far * 100, 2) + "%",
               analysis::fmt(rates.frr * 100, 2) + "%"});
  }
  std::fputs(t.render().c_str(), stdout);
  std::puts("");
}

void print_world_switch_note() {
  crypto::HmacDrbg rng(7);
  PartitionedMemory memory;
  memory.add_region("secure_ram", 4096, true);
  SecureWorld tee(&memory, &rng);
  tee.call(MonitorCall::kGenerateKey, "k");
  for (int i = 0; i < 100; ++i)
    tee.call(MonitorCall::kMac, "k", crypto::to_bytes("m"));
  std::printf("World-switch accounting: %llu switches for 101 monitor "
              "calls (model: %.0f cycles each)\n\n",
              static_cast<unsigned long long>(tee.world_switches()),
              SecureWorld::kWorldSwitchCycles);
}

}  // namespace

int main(int argc, char** argv) {
  mapsec::bench::release_guard();
  benchmark::AddCustomContext("mapsec_build_type",
                              mapsec::bench::build_type());
  benchmark::AddCustomContext(
      "crypto_dispatch",
      mapsec::crypto::dispatch::capabilities_summary());
  print_biometric_sweep();
  print_world_switch_note();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
