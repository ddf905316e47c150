#!/usr/bin/env bash
# Kernel guard: holds the compiled estimate scans against their float
# reference timed in the same process, so it needs no committed baseline
# and holds on any runner.
#
# BenchmarkCompiledEstimate (internal/core) times three scans at
# perfbench's point-small (d=2, 300 kernels) and batch-wide (d=8, 2000
# kernels) shapes:
#
#   avx2   the Go-assembly AVX2 scan, skipped on a host without AVX2
#   go     its pure-Go twin, which every other host runs
#   float  the float scan over geom.BoxSet.CornersIntersectionVolume
#
# The guard fails unless, at both shapes:
#
#   - all three report 0 allocs/op;
#   - avx2 takes at most 0.5x float's time per query, where the host has
#     AVX2 (the benchmark must then run it, not skip it);
#   - on Linux, the benchmark runs avx2 exactly where /proc/cpuinfo lists
#     avx2, so a wrong CPUID probe cannot pass as a host without AVX2;
#   - go takes at most 1.25x float's time per query.
#
# Each ratio compares medians over five rounds. The scans
# measured 0.10-0.25x (avx2) and 0.25-0.64x (go) of float on a 2-vCPU Xeon,
# so the bounds leave room for runner noise while an allocation, a lost
# vector path or a scan that doubles its time still fails.
#
# Run from the repository root: ./ci/check_kernel.sh
set -eu

AVX2_MAX=0.5
GO_MAX=1.25

# Five rounds of the whole benchmark, so every round times the three
# scans back to back.
out=""
for round in 1 2 3 4 5; do
    r=$(go test -run '^$' -bench 'BenchmarkCompiledEstimate' -benchmem \
        -benchtime=200ms -count=1 -v ./internal/core 2>&1) || {
        echo "$r"
        echo "ci/check_kernel.sh: BenchmarkCompiledEstimate failed" >&2
        exit 1
    }
    out="$out
$r"
done
echo "$out" | grep -E '^Benchmark.*ns/op|--- SKIP' || true

python3 - "$AVX2_MAX" "$GO_MAX" <<PYEOF
import re, statistics, sys

avx2_max, go_max = float(sys.argv[1]), float(sys.argv[2])
out = """$out"""

# The kernel's own reading of the CPU, to hold the package's CPUID probe
# against: None where there is no /proc/cpuinfo.
try:
    with open("/proc/cpuinfo") as f:
        flags = next((line.split(":", 1)[1].split() for line in f
                      if line.split(":", 1)[0].strip() == "flags"), None)
    cpu_avx2 = None if flags is None else "avx2" in flags
except OSError:
    cpu_avx2 = None

ns, allocs, skipped = {}, {}, set()
for line in out.splitlines():
    m = re.match(r"BenchmarkCompiledEstimate/(d=\d+/m=\d+)/(\w+)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op.*?\s(\d+) allocs/op", line)
    if m:
        key = (m.group(1), m.group(2))
        ns.setdefault(key, []).append(float(m.group(3)))
        allocs.setdefault(key, []).append(int(m.group(4)))
        continue
    m = re.match(r"\s*--- SKIP: BenchmarkCompiledEstimate/(d=\d+/m=\d+)/(\w+)", line)
    if m:
        skipped.add((m.group(1), m.group(2)))

shapes = sorted({shape for shape, _ in ns} | {shape for shape, _ in skipped})
if len(shapes) != 2:
    sys.exit("ci/check_kernel.sh: want two shapes, found %s" % shapes)

fail = False
def verdict(ok, text):
    global fail
    print("%s: %s" % (text, "ok" if ok else "FAIL"))
    fail = fail or not ok

for shape in shapes:
    for scan in ("avx2", "go", "float"):
        if scan == "avx2" and cpu_avx2 is not None:
            ran = (shape, scan) not in skipped
            verdict(ran == cpu_avx2, "%s/avx2: %s, /proc/cpuinfo %s avx2"
                    % (shape, "run" if ran else "skipped", "lists" if cpu_avx2 else "does not list"))
        if (shape, scan) in skipped and scan == "avx2":
            if cpu_avx2 is None:
                print("%s/avx2: skipped, the host has no AVX2" % shape)
            continue
        if (shape, scan) not in ns:
            verdict(False, "%s/%s: no result" % (shape, scan))
            continue
        worst = max(allocs[(shape, scan)])
        verdict(worst == 0, "%s/%s: %d allocs/op (want 0)" % (shape, scan, worst))
    float_ns = ns.get((shape, "float"))
    if not float_ns:
        continue
    base = statistics.median(float_ns)
    for scan, bound in (("avx2", avx2_max), ("go", go_max)):
        if (shape, scan) not in ns:
            continue
        got = statistics.median(ns[(shape, scan)])
        verdict(got <= bound * base, "%s/%s: %.0f ns/op, %.2fx float's %.0f (bound %.2fx)"
                % (shape, scan, got, got / base, base, bound))

if fail:
    sys.exit("ci/check_kernel.sh: the compiled estimate kernel regressed")
PYEOF
