#!/usr/bin/env bash
# Kernel guard: holds each Go-assembly kernel and its Go fallback against
# the code it replaced, timed in the same process, so it needs no committed
# baseline and holds on any runner.
#
# The read path. BenchmarkCompiledEstimate (internal/core) times three
# scans at perfbench's point-small (d=2, 300 kernels) and batch-wide (d=8,
# 2000 kernels) shapes:
#
#   avx2    the Go-assembly AVX2 scan, skipped on a host without AVX2
#   go      its pure-Go twin, which every other host runs
#   float   the float scan over geom.BoxSet.CornersIntersectionVolume
#
# The train. BenchmarkCholeskyFactor at n=1000 and BenchmarkGram at
# batch-wide's A (201 x 2000, ~80% nonzero), both in internal/linalg, time
# each dense product at one worker:
#
#   avx2    the AVX2 trailing-update tiles and Gram groups, skipped on a
#           host without AVX2
#   go      the Gram groups' pure-Go twin over the same packed A (the
#           factor has none: a host without AVX2 runs its scalar update)
#   scalar  the 2x3-tile trailing update and row-by-row Gram they replaced
#
# The guard fails unless:
#
#   - the scans report 0 allocs/op in every round, and the factor's avx2
#     path, in the median round, no more than scalar's. The Gram's packed
#     paths may allocate GRAM_EXTRA_ALLOCS more than scalar's: the packed
#     copy of A, the two nonzero lists and the two closures handed to
#     par.For (TestGramAllocatesPackedCopy bounds their bytes), so an
#     allocation per panel, row or group still fails. (The median, because
#     a round now and then counts a few allocations the runtime or the
#     testing package made on another goroutine.);
#   - on Linux, each benchmark runs avx2 exactly where /proc/cpuinfo lists
#     avx2, so a wrong CPUID probe cannot pass as a host without AVX2;
#   - each path stays within its own bound on its time over the baseline's
#     (float for the scans, scalar for the train):
#
#       kernel   path   bound   measured
#       scan     avx2   0.5x    0.08-0.25x
#       scan     go     1.25x   0.22-0.68x
#       factor   avx2   0.7x    0.33-0.46x
#       Gram     avx2   0.5x    0.30-0.36x
#       Gram     go     1.0x    0.60-0.81x
#
# Each ratio compares medians over five rounds; the measured ranges are
# from a shared 2-vCPU Xeon (2.0 GHz). Each bound leaves room for runner
# noise above its own measured range, while an allocation, a lost vector
# path or a train kernel that doubles its time still fails.
#
# Run from the repository root: ./ci/check_kernel.sh
set -eu

SCAN_AVX2_MAX=0.5
SCAN_GO_MAX=1.25
FACTOR_AVX2_MAX=0.7
GRAM_AVX2_MAX=0.5
GRAM_GO_MAX=1.0
GRAM_EXTRA_ALLOCS=5

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# rounds <file> <package> <go test flags...>: five rounds of the benchmarks,
# so every round times a kernel's paths back to back.
rounds() {
    local file=$1 pkg=$2
    shift 2
    for round in 1 2 3 4 5; do
        if ! go test -run '^$' -benchmem -count=1 -v "$@" "$pkg" >>"$file" 2>&1; then
            cat "$file"
            echo "ci/check_kernel.sh: the benchmarks in $pkg failed" >&2
            exit 1
        fi
    done
    grep -E '^Benchmark.*ns/op|--- SKIP' "$file" || true
}

rounds "$work/read" ./internal/core -bench 'BenchmarkCompiledEstimate' -benchtime=200ms
rounds "$work/train" ./internal/linalg \
    -bench 'Benchmark(CholeskyFactor|Gram)$/(n=1000|a=201x2000)$/workers=1$' -benchtime=5x

python3 - "$work/read" "$work/train" "$SCAN_AVX2_MAX" "$SCAN_GO_MAX" "$FACTOR_AVX2_MAX" \
    "$GRAM_AVX2_MAX" "$GRAM_GO_MAX" "$GRAM_EXTRA_ALLOCS" <<'PYEOF'
import re, statistics, sys

read_file, train_file = sys.argv[1], sys.argv[2]
scan_avx2_max, scan_go_max, factor_avx2_max, gram_avx2_max, gram_go_max = map(float, sys.argv[3:8])
gram_extra = int(sys.argv[8])

# The kernels' own reading of the CPU, to hold the CPUID probe against:
# None where there is no /proc/cpuinfo.
try:
    with open("/proc/cpuinfo") as f:
        flags = next((line.split(":", 1)[1].split() for line in f
                      if line.split(":", 1)[0].strip() == "flags"), None)
    cpu_avx2 = None if flags is None else "avx2" in flags
except OSError:
    cpu_avx2 = None

# Per benchmark: its results file, the path the others are timed against,
# the number of shapes it must report, the extra allocs/op its other paths
# may make over that baseline (None: exactly 0 for every path), and each
# other path's time bound.
kernels = [
    ("CompiledEstimate", read_file, "float", 2, None, {"avx2": scan_avx2_max, "go": scan_go_max}),
    ("CholeskyFactor", train_file, "scalar", 1, 0, {"avx2": factor_avx2_max}),
    ("Gram", train_file, "scalar", 1, gram_extra, {"avx2": gram_avx2_max, "go": gram_go_max}),
]

fail = False
def verdict(ok, text):
    global fail
    print("%s: %s" % (text, "ok" if ok else "FAIL"))
    fail = fail or not ok

for bench, path, base_path, want_shapes, extra, bounds in kernels:
    with open(path) as f:
        out = f.read()
    ns, allocs, skipped = {}, {}, set()
    for line in out.splitlines():
        m = re.match(r"Benchmark%s/(\S+)/(\w+)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op.*?\s(\d+) allocs/op" % bench, line)
        if m:
            key = (m.group(1), m.group(2))
            ns.setdefault(key, []).append(float(m.group(3)))
            allocs.setdefault(key, []).append(int(m.group(4)))
            continue
        m = re.match(r"\s*--- SKIP: Benchmark%s/(\S+)/(\w+)" % bench, line)
        if m:
            skipped.add((m.group(1), m.group(2)))
    shapes = sorted({shape for shape, _ in ns} | {shape for shape, _ in skipped})
    if len(shapes) != want_shapes:
        verdict(False, "%s: want %d shapes, found %s" % (bench, want_shapes, shapes))
        continue
    for shape in shapes:
        name = "%s/%s" % (bench, shape)
        base_allocs = statistics.median(allocs.get((shape, base_path), [0]))
        for kpath in list(bounds) + [base_path]:
            key = (shape, kpath)
            if kpath == "avx2" and cpu_avx2 is not None:
                ran = key not in skipped
                verdict(ran == cpu_avx2, "%s/avx2: %s, /proc/cpuinfo %s avx2"
                        % (name, "run" if ran else "skipped", "lists" if cpu_avx2 else "does not list"))
            if key in skipped and kpath == "avx2":
                if cpu_avx2 is None:
                    print("%s/avx2: skipped, the host has no AVX2" % name)
                continue
            if key not in ns:
                verdict(False, "%s/%s: no result" % (name, kpath))
                continue
            if extra is None:
                worst = max(allocs[key])
                verdict(worst == 0, "%s/%s: %d allocs/op (want 0)" % (name, kpath, worst))
            elif kpath != base_path:
                typical = statistics.median(allocs[key])
                verdict(typical <= base_allocs + extra, "%s/%s: %g allocs/op (want at most %s's %g + %d)"
                        % (name, kpath, typical, base_path, base_allocs, extra))
        base_ns = ns.get((shape, base_path))
        if not base_ns:
            continue
        base = statistics.median(base_ns)
        for kpath, bound in bounds.items():
            if (shape, kpath) not in ns:
                continue
            got = statistics.median(ns[(shape, kpath)])
            verdict(got <= bound * base, "%s/%s: %.0f ns/op, %.2fx %s's %.0f (bound %.2fx)"
                    % (name, kpath, got, got / base, base_path, base, bound))

if fail:
    sys.exit("ci/check_kernel.sh: a kernel regressed")
PYEOF
