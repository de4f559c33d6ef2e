#!/usr/bin/env bash
# Full verification sweep, four trees:
#   1. release            — the complete ctest suite
#   2. ASan/UBSan         — the complete suite under address+UB sanitizers
#   3. release, forced-scalar crypto (MAPSEC_FORCE_SCALAR=1) — portable
#      kernels stay green where the dispatcher would otherwise hide them
#      (the sanitizer tree covers the accelerated path)
#   4. TSan               — the concurrency-bearing subset (server,
#      chaos campaigns, wire fuzzing, the sharded and socket tiers)
#      under ThreadSanitizer
# This is the gate a change must pass before it lands.
#
# Finally, re-records the benchmark baselines from the release tree and
# diffs them against the committed BENCH_*.json, failing on >20%
# throughput regressions, then runs the repository benchmark's
# self-test (sockbench: every workload briefly, every metric emitted).
# On by default — the release tree the suite just built is exactly the
# tree the baselines describe. Set MAPSEC_BENCH_COMPARE=0 to skip both
# (e.g. on loaded or throttled hosts where wall-clock throughput is
# meaningless).
#
# Usage: ci/check.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

echo "== release tree =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "== socket smoke (real loopback TCP) =="
# The sim suite above exercises the socket bearer's logic; this stage
# re-proves the flagship sim-vs-socket outcome-equality test on real
# sockets as its own named stage, so a sandbox without loopback TCP
# skips VISIBLY instead of the coverage quietly evaporating into
# GTEST_SKIP lines.
#
# It then drives the shipped server binary end to end: a 2-shard
# `session_server --listen` served to an out-of-process
# bench_socket_load_gen (50 clients x 2 sessions). The server must exit
# 0 with its books conserved.
if ./build/bench/bench_socket_load_gen --probe; then
  ctest --test-dir build --output-on-failure -j "${JOBS}" \
    -R 'SocketFleetTest|SocketBearer'
  SMOKE_LOG="$(mktemp)"
  ./build/examples/session_server --listen --shards 2 --seconds 3 \
    > "${SMOKE_LOG}" &
  SERVER_PID=$!
  for _ in $(seq 50); do
    grep -q '^listening on' "${SMOKE_LOG}" && break
    sleep 0.1
  done
  PORTS="$(sed -n 's/^listening on 127\.0\.0\.1 ports \([0-9,]*\) .*/\1/p' \
    "${SMOKE_LOG}")"
  ./build/bench/bench_socket_load_gen --ports="${PORTS}" --clients=50 \
    --sessions=2 > /dev/null || { kill "${SERVER_PID}"; exit 1; }
  wait "${SERVER_PID}"
  cat "${SMOKE_LOG}"
  grep -q '^books conserved' "${SMOKE_LOG}"
  rm -f "${SMOKE_LOG}"
else
  echo "SKIP: loopback sockets unavailable in this sandbox"
fi

echo "== sanitizer tree (MAPSEC_SANITIZE=ON) =="
cmake -B build-asan -S . -DMAPSEC_SANITIZE=ON
cmake --build build-asan -j "${JOBS}"
ctest --test-dir build-asan --output-on-failure -j "${JOBS}"

echo "== release tree, forced-scalar crypto (MAPSEC_FORCE_SCALAR=1) =="
MAPSEC_FORCE_SCALAR=1 ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "== forced-scalar batched differential sweep =="
# The batched paths must prove bit-identity on the scalar kernels too,
# not just on the ISA kernels: the batched offload windows (the modeled
# window pricing, the whole-window steal and the fleet digest across
# batch widths, offload and chaos) and the golden CCMP pipeline batch.
# This names the sweep explicitly so a filter change in the full run can
# never silently drop it from the scalar tree.
MAPSEC_FORCE_SCALAR=1 ctest --test-dir build --output-on-failure -j "${JOBS}" \
  -R 'BatchWidth|BatchWindow|MidBatch|WholeWindow|PipelineGolden'

echo "== forced-scalar bit-identity pins =="
# The Montgomery kernel cross-check (the ISA kernel against the scalar
# oracle, 2^20 triples per width), the golden keygen outputs (primes and
# the bench PKI digest), and the golden PRF, DRBG and PKCS#1 outputs must
# hold on the scalar kernels as well: every key and transcript a scalar
# host derives must equal an accelerated host's.
MAPSEC_FORCE_SCALAR=1 ctest --test-dir build --output-on-failure -j "${JOBS}" \
  -R 'MontKernel|KeygenGolden|GoldenExpansions|HmacDrbgGolden|Pkcs1Golden|ModExpMatchesScalar'

echo "== forced-scalar ticket + renegotiation + sharded + failover sweep =="
# Session tickets seal/open through AES-CCM and the renegotiation matrix
# crosses cipher suites mid-session; both must be bit-identical on the
# scalar kernels (a ticket minted by an accelerated server MUST open on a
# scalar one — deterministic key ring plus portable CCM). The sharded
# tier's digest-invariance matrix rides here too: the fleet transcript
# must stay byte-identical across shard counts on the scalar kernels as
# well. The failover determinism matrix joins them: the crash ->
# reconnect -> ticket-resume -> rejoin cycle must replay byte-identically
# (and match the undisturbed run) on the scalar kernels, since the
# tickets a victim resumes with cross the accelerated/scalar boundary.
# Named here so a filter change elsewhere can never silently drop them
# from this tree.
MAPSEC_FORCE_SCALAR=1 ctest --test-dir build --output-on-failure -j "${JOBS}" \
  -R 'Ticket|Renegotiat|ChaosTest|CampaignSoak|Shard|Failover|HangLatch'

echo "== thread-sanitizer tree (MAPSEC_SANITIZE=thread) =="
# TSan covers the concurrency surface. The PacketPipeline has no threads
# of its own (it runs on its caller's), so its tests here, and the
# server, chaos and wire-fuzz suites that drive it, vet only the threads
# around it: the OffloadEngine's worker pool, which the server and
# campaign suites start (stalled workers are stolen from another
# thread), the ticket and renegotiation lifecycles, and the sharded
# serving tier whose shard threads hand the world back and forth with
# the coordinator at epoch barriers.
# The failover suite is the sharpest of these: hang latches park shard
# threads mid-slice, the wall-clock watchdog releases them from another
# thread, and supervised kills tear worlds down between slices — exactly
# the handoffs TSan exists to vet. The socket tier joins them: shard
# threads retire connections that stop() then reads from another
# thread, and Reactor::post() hands work to a shard from outside it.
cmake -B build-tsan -S . -DMAPSEC_SANITIZE=thread
cmake --build build-tsan -j "${JOBS}"
ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
  -R 'Pipeline|pipeline|Server|server|Chaos|chaos|Campaign|WireFuzz|net_|Ticket|Renegotiat|Shard|Failover|HangLatch|Socket|Reactor'

if [[ "${MAPSEC_BENCH_COMPARE:-1}" != "0" ]]; then
  echo "== benchmark baseline comparison =="
  BENCH_DIR="$(mktemp -d)"
  trap 'rm -rf "${BENCH_DIR}"' EXIT
  # Five repetitions, compared by their medians, damp one-sample
  # outliers (single samples of one binary have differed by 0.62x).
  record_crypto() {
    ./build/bench/bench_crypto_primitives \
      --benchmark_format=json --benchmark_min_time=0.2 \
      --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
      --benchmark_out="${BENCH_DIR}/BENCH_crypto.json" \
      --benchmark_out_format=json
  }
  record_engine() {
    ./build/bench/bench_pipeline_throughput \
      --benchmark_format=json --benchmark_min_time=0.2 \
      --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
      --benchmark_out="${BENCH_DIR}/BENCH_engine.json" \
      --benchmark_out_format=json
  }
  record_server() {
    ./build/bench/bench_server_load "${BENCH_DIR}/BENCH_server.json"
  }
  # One wall-clock sample on a shared host can dip >20% without any code
  # change; a real regression also reproduces in a second sample. Each
  # report therefore gets a single re-measure before the gate fails.
  compare() {  # compare BASELINE.json record_fn
    "$2"
    if ! python3 ci/bench_compare.py "$1" "${BENCH_DIR}/$1"; then
      echo "-- $1 regressed in one sample; re-measuring to rule out host noise --"
      "$2"
      python3 ci/bench_compare.py "$1" "${BENCH_DIR}/$1"
    fi
  }
  compare BENCH_crypto.json record_crypto
  compare BENCH_engine.json record_engine
  compare BENCH_server.json record_server

  echo "== repository benchmark self-test (sockbench) =="
  # Exit 3 means no loopback TCP: skip visibly, like the socket smoke.
  SOCKBENCH_RC=0
  python3 sockbench/run.py --self-test || SOCKBENCH_RC=$?
  if [[ "${SOCKBENCH_RC}" -eq 3 ]]; then
    echo "SKIP: sockbench self-test needs loopback sockets, unavailable here"
  elif [[ "${SOCKBENCH_RC}" -ne 0 ]]; then
    exit "${SOCKBENCH_RC}"
  fi
fi

echo "== OK: all configurations green =="
