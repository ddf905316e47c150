#!/usr/bin/env bash
# Docs-freshness check: fails when the documentation layer drifts from the
# code. Three invariants:
#
#   1. ARCHITECTURE.md mentions every package under internal/ — adding a
#      package without placing it on the map is a CI failure.
#   2. docs/API.md mentions every HTTP route registered in
#      internal/server/http.go — adding or renaming an endpoint without
#      documenting it is a CI failure.
#   3. README.md and ARCHITECTURE.md quote the WAL interval-fsync overhead
#      recorded in BENCH_quicksel.json (observe.interval_overhead_pct, to
#      one decimal) and state no other figure for it.
#   4. Every *.md file that a Go source, a script, README.md,
#      ARCHITECTURE.md or a file under docs/ names exists — a pointer to a
#      document nobody wrote is a CI failure.
#
# Run from the repository root: ./ci/check_docs.sh
set -u

fail=0

if [ ! -f ARCHITECTURE.md ]; then
    echo "ci/check_docs.sh: ARCHITECTURE.md is missing" >&2
    exit 1
fi
if [ ! -f docs/API.md ]; then
    echo "ci/check_docs.sh: docs/API.md is missing" >&2
    exit 1
fi

# 1. Every internal package appears in ARCHITECTURE.md.
for dir in internal/*/; do
    pkg=$(basename "$dir")
    if ! grep -q "internal/$pkg" ARCHITECTURE.md; then
        echo "ARCHITECTURE.md does not mention internal/$pkg" >&2
        fail=1
    fi
done

# 2. Every registered route appears in docs/API.md. Routes are the
# 'METHOD /path' strings handed to mux.HandleFunc in internal/server/http.go.
routes=$(grep -ohE '"(GET|POST|PUT|DELETE|PATCH) [^" ]+"' internal/server/http.go | tr -d '"' | sort -u)
if [ -z "$routes" ]; then
    echo "ci/check_docs.sh: found no registered routes in internal/server (pattern drift?)" >&2
    fail=1
fi
while IFS= read -r route; do
    path=${route#* }
    if ! grep -qF "$path" docs/API.md; then
        echo "docs/API.md does not mention route '$route'" >&2
        fail=1
    fi
done <<EOF
$routes
EOF

# 3. The WAL overhead prose quotes the bench file. Lines are joined first,
# because a statement may wrap: "<N>% [word] overhead" must read the
# recorded figure, and the words "single-digit percent" must not describe
# it.
pct=$(grep -oE '"interval_overhead_pct": *[0-9.]+' BENCH_quicksel.json | grep -oE '[0-9.]+$')
if [ -z "$pct" ]; then
    echo "ci/check_docs.sh: BENCH_quicksel.json has no observe.interval_overhead_pct" >&2
    fail=1
else
    want=$(printf '%.1f' "$pct")
    for doc in README.md ARCHITECTURE.md; do
        text=$(tr '\n' ' ' < "$doc")
        stated=$(printf '%s' "$text" | grep -oE '[0-9]+(\.[0-9]+)?%( [A-Za-z-]+)? overhead' | grep -oE '^[0-9.]+')
        if [ -z "$stated" ]; then
            echo "$doc does not state the WAL interval overhead (${want}%, BENCH_quicksel.json)" >&2
            fail=1
        fi
        for got in $stated; do
            if [ "$got" != "$want" ]; then
                echo "$doc states a ${got}% overhead; BENCH_quicksel.json records ${want}%" >&2
                fail=1
            fi
        done
        if printf '%s' "$text" | grep -qE 'single-digit[- ]percent[^.]*overhead'; then
            echo "$doc calls the WAL overhead single-digit; BENCH_quicksel.json records ${want}%" >&2
            fail=1
        fi
    done
fi

# 4. Named documents exist, as a path from the repository root or from the
# naming file's directory.
while IFS= read -r file; do
    for name in $(grep -ohE '[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b' "$file" | sort -u); do
        if [ ! -e "$name" ] && [ ! -e "$(dirname "$file")/$name" ]; then
            echo "$file names $name, which does not exist" >&2
            fail=1
        fi
    done
done <<EOF
$(find . -path ./.git -prune -o \( -name '*.go' -o -name '*.sh' \) -print)
README.md
ARCHITECTURE.md
$(find docs -type f)
EOF

if [ "$fail" -ne 0 ]; then
    echo "ci/check_docs.sh: documentation is stale (see above)" >&2
    exit 1
fi
echo "ci/check_docs.sh: ARCHITECTURE.md and docs/API.md cover all packages and routes; the WAL overhead prose matches BENCH_quicksel.json; every named document exists"
