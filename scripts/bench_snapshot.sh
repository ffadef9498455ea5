#!/bin/sh
# Captures the top-level benchmark suite (one benchmark per experiment,
# E1-E17 / A1-A4, plus the single-solve and session benchmarks) as a
# compact JSON snapshot so future PRs can track the perf trajectory.
#
# Usage: scripts/bench_snapshot.sh [out.json | label] [benchtime] [bench-regex]
#
# The first argument is either a full output path (anything ending in
# .json) or a bare label: `scripts/bench_snapshot.sh pr3` writes
# BENCH_pr3.json. The optional third argument restricts which benchmarks
# run (default all), e.g. 'E2|E3|E4|A3' for the greedy-bound experiments.
# Compare two snapshots with scripts/bench_diff.sh.
#
# Each snapshot records the environment it was captured in (GOMAXPROCS,
# CPU count, go version, host label) because numbers from different
# machines or core counts are not comparable, and bench_diff.sh warns
# loudly on a mismatch. Benchmark names are
# normalized by stripping go's -GOMAXPROCS suffix (Benchmark...-8) so
# the same benchmark lines up across environments.
set -eu
out="${1:-BENCH_baseline.json}"
case "$out" in
*.json) ;;
*) out="BENCH_${out}.json" ;;
esac
benchtime="${2:-3x}"
benchre="${3:-.}"

go_version="$(go env GOVERSION)"
goos="$(go env GOOS)"
goarch="$(go env GOARCH)"
num_cpu="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
gomaxprocs="${GOMAXPROCS:-$num_cpu}"
host_label="${BENCH_HOST_LABEL:-$(uname -n)}"

go test -run '^$' -bench "$benchre" -benchtime "$benchtime" . | tee /dev/stderr | awk \
    -v benchtime="$benchtime" -v go_version="$go_version" \
    -v goos="$goos" -v goarch="$goarch" -v num_cpu="$num_cpu" \
    -v gomaxprocs="$gomaxprocs" -v host_label="$host_label" '
BEGIN {
    printf "{\n  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"env\": {\"go\": \"%s\", \"os_arch\": \"%s/%s\", \"num_cpu\": %s, \"gomaxprocs\": %s, \"host\": \"%s\"},\n", \
        go_version, goos, goarch, num_cpu, gomaxprocs, host_label
    printf "  \"benchmarks\": ["
    sep=""
}
/^Benchmark/ {
    name = $1; ns = 0; bytes = 0; allocs = 0
    sub(/-[0-9]+$/, "", name)  # strip the -GOMAXPROCS suffix go appends
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns     = $(i-1)
        if ($i == "B/op")      bytes  = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
    }
    printf "%s\n    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", sep, name, ns, bytes, allocs
    sep = ","
}
END { printf "\n  ]\n}\n" }
' > "$out"
echo "wrote $out"
