#!/usr/bin/env python3
"""Compare a fresh benchmark JSON report against a committed baseline.

Usage: bench_compare.py BASELINE.json FRESH.json [--threshold 0.20]
       bench_compare.py --exact BASELINE.json FRESH.json

--exact is the equivalence oracle for scenario reports: it fails unless
every leaf of FRESH equals the same leaf of BASELINE (and neither report
has a leaf the other lacks), wall-clock leaves aside (keys ending in
"_wall" or "_ns_per_lookup", "wall_s", and "wall_over_modeled_*"). It
names every leaf that differs. Use it to show that a change which should
not move any simulated figure did not.

Two input formats are understood:

  * google-benchmark reports (BENCH_crypto.json, BENCH_engine.json):
    benchmarks matched by name (a report recorded with repetitions is
    reduced to its _median aggregates, renamed to the plain run name, so
    it compares against single-sample baselines too; argument variants like
    BM_CcmpInboundPipeline/4/real_time are distinct names, so every
    worker count is compared separately), throughput taken from
    bytes_per_second or items_per_second when present, otherwise inverse
    real_time.
  * mapsec scenario reports (BENCH_server.json, any doc with a top-level
    "scenarios" key): nested dicts of named scenarios holding mixed
    metric fields. Only throughput-like numeric leaves (keys ending in
    "_per_s" or "_mbps") are compared; every other field — counters,
    energy figures, metrics added by future experiments — is ignored by
    construction, so extending a report never breaks comparison against
    an older baseline. The E23 "ticket_scale" block follows that
    convention: its cache_/ticket_sessions_per_s and *_record_mbps pairs
    are compared (the cache-vs-stateless-ticket throughput parity the
    bench itself gates at ±10%), while throughput_droop, the
    state-bytes-per-user figures and the 10k/100k/1M extrapolation rows
    are descriptive and skipped. The E24 "shard_sweep" block gets one
    extra structural gate on the FRESH report: the sharded tier must
    still scale the aggregate handshake rate >= 3x from 1 to 4 shards
    with byte-identical fleet digests — a topology property, so it is
    checked absolutely rather than against the baseline's value. The
    E25 "failover_slo" block gets the same treatment: a shard crash may
    lose zero honest sessions, every failover reconnect must resume by
    ticket, the blackout p99 must stay under the report's own budget,
    and the recovery transcript must be byte-identical across reruns
    and against the undisturbed run. The E26 "socket_wallclock" block
    inverts the split: its rates are real wall-clock figures, named
    with _wall suffixes precisely so they are NEVER baseline-compared
    (loopback throughput is a property of the host, not the code),
    while the outcome-equality/conservation/zero-allocation booleans
    are gated absolutely.

Exits non-zero if any benchmark regressed by more than the threshold.
Improvements and new/removed benchmarks are reported but never fail the
run — a baseline recorded on different hardware or a different dispatch
backend (see the report's "crypto_dispatch" context) is expected to move
in both directions. ci/check.sh runs this comparison by default against
the release tree it just validated; set MAPSEC_BENCH_COMPARE=0 there to
skip it on hosts whose wall-clock throughput is not trustworthy.

Only python3 stdlib; no third-party imports.
"""

import argparse
import json
import sys


def _walk_throughput(node, prefix, out):
    """Collect throughput-like numeric leaves from a scenario report."""
    if isinstance(node, dict):
        for key, value in sorted(node.items()):
            _walk_throughput(value, f"{prefix}/{key}" if prefix else key, out)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        if prefix.endswith(("_per_s", "_mbps")) and node > 0:
            out[prefix] = ("throughput", float(node))


def load_benchmarks(path):
    with open(path) as f:
        doc = json.load(f)
    if "scenarios" in doc:
        out = {}
        _walk_throughput(doc, "", out)
        ctx = {"mapsec_build_type": doc.get("mapsec_build_type",
                                            doc.get("build_type")),
               "crypto_dispatch": doc.get("crypto_dispatch")}
        return ctx, out
    out = {}
    rows = doc.get("benchmarks", [])
    # A report recorded with --benchmark_repetitions carries per-benchmark
    # aggregates; compare the medians, named after their plain runs so they
    # match a baseline recorded either way. Older single-sample reports
    # have no aggregates and are compared row by row.
    medians = [b for b in rows if b.get("run_type") == "aggregate"
               and b.get("aggregate_name") == "median"]
    if medians:
        rows = [dict(b, name=b["run_name"]) for b in medians]
    else:
        rows = [b for b in rows if b.get("run_type") != "aggregate"]
    for b in rows:
        name = b["name"]
        if "bytes_per_second" in b:
            out[name] = ("bytes_per_second", float(b["bytes_per_second"]))
        elif "items_per_second" in b:
            # Batched benchmarks report per-item throughput (e.g. RSA ops/s
            # across a batch width); compare that, not wall time per batch.
            out[name] = ("items_per_second", float(b["items_per_second"]))
        elif float(b.get("real_time", 0)) > 0:
            # Throughput proxy: ops per unit real time.
            out[name] = ("1/real_time", 1.0 / float(b["real_time"]))
    return doc.get("context", {}), out


def check_shard_sweep(path):
    """Structural gate on the fresh report's E24 shard_sweep block.

    Scaling across shard counts is a property of the sharded tier, not
    of the host the baseline was recorded on, so it is gated absolutely:
    aggregate full-handshake rate must grow >= 3x from 1 to 4 shards and
    the fleet digests must have matched byte-for-byte. Reports without a
    shard_sweep block (older baselines, other benches) pass vacuously.
    """
    with open(path) as f:
        doc = json.load(f)
    sweep = doc.get("shard_sweep")
    if not isinstance(sweep, dict):
        return True
    failures = []
    one = sweep.get("shards_1", {}).get("full_handshakes_per_s", 0)
    four = sweep.get("shards_4", {}).get("full_handshakes_per_s", 0)
    if one > 0 and four > 0:
        scaling = four / one
        if scaling < 3.0:
            failures.append(
                f"1->4 shard handshake scaling {scaling:.2f}x < 3x")
    else:
        failures.append("shards_1/shards_4 rates missing or non-positive")
    if sweep.get("digests_match") is not True:
        failures.append("fleet digests diverged across shard counts")
    if sweep.get("soak_conserved") is False:
        failures.append("soak per-shard sums diverged from fleet totals")
    for msg in failures:
        print(f"  [SHARD]   {msg}")
    return not failures


def check_failover_slo(path):
    """Structural gate on the fresh report's E25 failover_slo block.

    Availability SLOs are absolute properties of the supervised tier —
    a crash may lose ZERO honest sessions, every failover reconnect must
    resume by ticket (no public-key op for the survivor), the client
    blackout p99 must stay under the report's own budget, and the
    crash/recovery transcript must be byte-identical to both a rerun and
    the undisturbed run. None of this depends on the baseline host, so
    the gate never compares against the baseline. Reports without a
    failover_slo block (older baselines, other benches) pass vacuously.
    """
    with open(path) as f:
        doc = json.load(f)
    slo = doc.get("failover_slo")
    if not isinstance(slo, dict):
        return True
    failures = []
    if slo.get("sessions_lost", 0) != 0:
        failures.append(
            f"{slo.get('sessions_lost')} honest session(s) lost to the crash")
    if slo.get("sessions_completed") != slo.get("sessions_attempted"):
        failures.append("not every attempted session completed")
    reconnects = slo.get("client_reconnects", 0)
    if reconnects <= 0:
        failures.append("crash produced no failover reconnects "
                        "(the fault did not land mid-flood)")
    if slo.get("failover_resumes") != reconnects:
        failures.append(
            f"{slo.get('failover_resumes')}/{reconnects} failover "
            "reconnects resumed by ticket (the rest paid a full handshake)")
    budget = slo.get("blackout_budget_ms", 0)
    p99 = slo.get("blackout_p99_ms", 0)
    if budget > 0 and p99 > budget:
        failures.append(
            f"blackout p99 {p99:.1f} ms over the {budget:.0f} ms budget")
    if slo.get("digest_match_rerun") is not True:
        failures.append("crash/recovery transcript diverged across reruns")
    if slo.get("digest_match_undisturbed") is not True:
        failures.append(
            "crashed run's fleet digest differs from the undisturbed run")
    if slo.get("missed_heartbeats", 0) != 0:
        failures.append(
            f"{slo.get('missed_heartbeats')} live-shard heartbeat(s) missed")
    for msg in failures:
        print(f"  [FAILOVER] {msg}")
    return not failures


def check_socket_wallclock(path):
    """Structural gate on the fresh report's E26 socket_wallclock block.

    Wall-clock socket rates are host-dependent by nature, and the bench
    deliberately names them with _wall suffixes so the throughput walk
    above never compares them against a baseline. What IS absolute is
    correctness: the loopback socket-fleet run must have reproduced the
    sim run's session outcomes exactly (handshake mix, byte-exact
    echoes via the refolded fleet digest), kept the conservation books
    balanced, and never allocated past the arena pre-reserve on the
    record path. Reports without the block, or runs that skipped it
    because the sandbox has no loopback sockets, pass vacuously — the
    skip is already visible in the bench output.
    """
    with open(path) as f:
        doc = json.load(f)
    sw = doc.get("socket_wallclock")
    if not isinstance(sw, dict) or sw.get("skipped") is True:
        return True
    failures = []
    if sw.get("outcome_equal") is not True:
        failures.append("socket-fleet session outcomes diverged from the "
                        "sim run for the same seed")
    if sw.get("digest_match") is not True:
        failures.append("refolded socket fleet digest differs from the "
                        "sim fleet digest")
    if sw.get("conserved") is not True:
        failures.append("conservation books did not balance across the "
                        "socket fleet")
    if sw.get("zero_steady_state_alloc") is not True:
        failures.append("record path allocated past the arena pre-reserve")
    if sw.get("echo_mismatches", 0) != 0:
        failures.append(f"{sw.get('echo_mismatches')} echo mismatch(es) "
                        "over the socket bearer")
    for msg in failures:
        print(f"  [SOCKET]  {msg}")
    return not failures


def _is_wall_clock(path):
    key = path.rsplit("/", 1)[-1]
    return (key == "wall_s" or key.endswith(("_wall", "_ns_per_lookup"))
            or key.startswith("wall_over_modeled_"))


def _leaves(node, prefix, out):
    if isinstance(node, dict):
        for key, value in node.items():
            _leaves(value, f"{prefix}/{key}" if prefix else key, out)
    else:
        out[prefix] = node


def compare_exact(baseline, fresh):
    """Leaf-for-leaf equality of two scenario reports, wall clock aside."""
    leaves = []
    for path in (baseline, fresh):
        with open(path) as f:
            out = {}
            _leaves(json.load(f), "", out)
            leaves.append({k: v for k, v in out.items()
                           if not _is_wall_clock(k)})
    base, new = leaves
    differ = 0
    for name in sorted(set(base) | set(new)):
        if name not in new:
            print(f"  [gone]    {name} (in baseline only)")
        elif name not in base:
            print(f"  [new]     {name} (in fresh only)")
        elif base[name] != new[name]:
            print(f"  [DIFFER]  {name}: {base[name]!r} -> {new[name]!r}")
        else:
            continue
        differ += 1
    if differ:
        print(f"{differ} of {len(set(base) | set(new))} leaves differ "
              f"between {baseline} and {fresh}")
        return 1
    print(f"all {len(base)} non-wall-clock leaves identical")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="fractional regression that fails the run")
    ap.add_argument("--exact", action="store_true",
                    help="require every non-wall-clock leaf to be equal")
    args = ap.parse_args()
    if args.exact:
        return compare_exact(args.baseline, args.fresh)

    base_ctx, base = load_benchmarks(args.baseline)
    fresh_ctx, fresh = load_benchmarks(args.fresh)

    for key in ("mapsec_build_type", "crypto_dispatch"):
        b, f = base_ctx.get(key), fresh_ctx.get(key)
        if b and f and b != f:
            print(f"note: {key} differs: baseline={b!r} fresh={f!r}")

    regressions = []
    for name, (metric, base_v) in sorted(base.items()):
        if name not in fresh:
            print(f"  [gone]    {name} (in baseline only)")
            continue
        fresh_metric, fresh_v = fresh[name]
        if fresh_metric != metric or base_v <= 0:
            continue
        ratio = fresh_v / base_v
        if ratio < 1.0 - args.threshold:
            regressions.append((name, metric, ratio))
            print(f"  [REGRESS] {name}: {metric} at {ratio:.2f}x baseline")
        elif ratio > 1.0 + args.threshold:
            print(f"  [faster]  {name}: {metric} at {ratio:.2f}x baseline")
        else:
            print(f"  [ok]      {name}: {ratio:.2f}x")
    for name in sorted(set(fresh) - set(base)):
        print(f"  [new]     {name} (no baseline)")

    if not check_shard_sweep(args.fresh):
        print(f"shard_sweep structural gate failed in {args.fresh}")
        return 1
    if not check_failover_slo(args.fresh):
        print(f"failover_slo structural gate failed in {args.fresh}")
        return 1
    if not check_socket_wallclock(args.fresh):
        print(f"socket_wallclock structural gate failed in {args.fresh}")
        return 1
    if regressions:
        print(f"{len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold:.0%} vs {args.baseline}")
        return 1
    print(f"no regressions beyond {args.threshold:.0%} vs {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
