#!/usr/bin/env bash
# Bench-smoke guard for two hot paths, each within noise of the committed
# BENCH_quicksel.json baseline:
#
#   - estimate, per query: BenchmarkEstimate/m=250/d=2 in the root package,
#     the compiled estimate kernel alone (core.Model.Estimate on a box). It
#     runs no predicate parsing, registry, or histogram, so it guards the
#     kernel, not the instrumented serving path.
#   - observe, per record: BenchmarkObserveWalOff in internal/server,
#     Registry.ObserveParsed with the WAL off, which records a latency
#     histogram sample and a q-error sample per request (~12 ns lock-free
#     atomics each).
#
# A guard failure means an accidental allocation, lock, or syscall landed on
# one of those paths.
#
# The bound is deliberately loose (8x the committed numbers): shared CI
# runners are slow and noisy, and this guard exists to catch order-of-
# magnitude regressions, not single-digit drift. The
# committed baseline itself is regenerated by `go run ./cmd/quickselbench
# perf` on a quiet host.
#
# Run from the repository root: ./ci/check_bench_smoke.sh
set -eu

NOISE_FACTOR=8

estimate_out=$(go test -run '^$' -bench 'BenchmarkEstimate$/m=250/d=2' -benchtime=2000x . 2>&1)
echo "$estimate_out"
observe_out=$(go test -run '^$' -bench 'BenchmarkObserveWalOff' -benchtime=50x ./internal/server 2>&1)
echo "$observe_out"

python3 - "$NOISE_FACTOR" <<PYEOF
import json, re, sys

noise = float(sys.argv[1])
base = json.load(open("BENCH_quicksel.json"))

estimate_base = next(r["estimate_ns"] for r in base["results"]
                     if r["m"] == 250 and r["d"] == 2)
observe_base = base["observe"]["wal_off_ns_per_record"]

def ns_per_op(out, bench):
    for line in out.splitlines():
        m = re.match(r"%s\S*\s+\d+\s+([\d.]+) ns/op" % re.escape(bench), line)
        if m:
            return float(m.group(1))
    sys.exit("bench output missing %s:\n%s" % (bench, out))

estimate_got = ns_per_op("""$estimate_out""", "BenchmarkEstimate/m=250/d=2")
# One observe op is a 512-record batch; the baseline is per record.
observe_got = ns_per_op("""$observe_out""", "BenchmarkObserveWalOff") / 512

fail = False
for name, got, want in [
    ("estimate ns/query", estimate_got, estimate_base),
    ("observe ns/record", observe_got, observe_base),
]:
    bound = want * noise
    verdict = "ok" if got <= bound else "REGRESSION"
    print("%s: measured %.0f, baseline %.0f, bound %.0f (%sx): %s"
          % (name, got, want, bound, noise, verdict))
    if got > bound:
        fail = True
if fail:
    sys.exit("instrumented hot path regressed past the noise bound")
PYEOF
