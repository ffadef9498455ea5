#!/bin/sh
# Captures the benchmark ladder as a JSON snapshot. Each rung times one
# layer a request crosses, bottom up: the bipartite matcher probe and
# prefix sweep, one lazy-greedy round, a cold ScheduleAll and a session
# slide, Service.Do on a cache miss and on a hit, the HTTP handler on a
# stored-reply hit and on a digest hit, an fsynced journal append, and
# the router hop. The rung
# list below is the only place the ladder is defined; each benchmark
# lives next to its package.
#
# Usage: scripts/bench_snapshot.sh <label | out.json>   (from the repo root)
#
# A bare label names the file: `scripts/bench_snapshot.sh pr16` writes
# BENCH_pr16.json. Every rung runs 5 times at a fixed benchtime (about
# 2 minutes in all on 2 CPUs); the snapshot keeps the median and the
# quartiles q1/q3 of ns/op, so scripts/bench_diff.sh can tell a
# slowdown from noise, plus the median B/op and allocs/op and the median
# of every custom metric a rung reports with b.ReportMetric (a work
# counter such as the matcher's edges/op), under "metrics". It also
# records the capture environment (go version, OS/arch, CPU model, CPU
# count, GOMAXPROCS), because numbers from different machines are not
# comparable. The script fails if any rung produced no samples.
#
# End-to-end serving figures come from perfbench/run.sh, not from here.
set -eu
out="${1:?usage: scripts/bench_snapshot.sh <label | out.json>}"
case "$out" in
*.json) ;;
*) out="BENCH_${out}.json" ;;
esac

# One rung a line: package, benchmark name without its Benchmark prefix.
# A benchmark with sub-benchmarks contributes one rung per sub-benchmark.
rungs='
./internal/bipartite IncrementalEnable
./internal/bipartite PrefixGains
./internal/budget    StepwiseRound
.                    ScheduleAllSolveCold
.                    SessionSlide
./internal/service   ServiceDo
./internal/service   HTTPHandler
./internal/service   JournalAppend
./internal/cluster   RouterHop
'
count=5
benchtime=1s

pkgs="$(echo "$rungs" | awk 'NF && !seen[$1]++ { printf "%s ", $1 }')"
names="$(echo "$rungs" | awk 'NF { printf "%s%s", sep, $2; sep = "|" }')"
num_cpu="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
tmp="$out.tmp"
trap 'rm -f "$tmp"' EXIT

# shellcheck disable=SC2086 # $pkgs is a word list
go test -run '^$' -bench "^Benchmark($names)\$" -count "$count" -benchtime "$benchtime" $pkgs |
    tee /dev/stderr | awk \
    -v count="$count" -v benchtime="$benchtime" -v names="$names" \
    -v go_version="$(go env GOVERSION)" -v os_arch="$(go env GOOS)/$(go env GOARCH)" \
    -v num_cpu="$num_cpu" '
# q returns the p-quantile (nearest rank) of the n sorted values v[1..n].
function q(v, n, p) { return v[int(p * (n - 1) + 0.5) + 1] }
function sortv(v, n,    i, j, x) {
    for (i = 2; i <= n; i++) {
        x = v[i]
        for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
        v[j + 1] = x
    }
}
/^pkg: / { pkg = $2 }
/^cpu: / { cpu = substr($0, 6); gsub(/"/, "", cpu) }
/^Benchmark.* ns\/op/ {
    name = $1
    gomaxprocs = 1
    if (match(name, /-[0-9]+$/)) {  # go appends -GOMAXPROCS when it is not 1
        gomaxprocs = substr(name, RSTART + 1)
        name = substr(name, 1, RSTART - 1)
    }
    if (!(name in samples)) { order[++nr] = name; pkgOf[name] = pkg }
    k = ++samples[name]
    for (i = 4; i <= NF; i += 2) {
        if ($i == "ns/op")          ns[name, k]     = $(i - 1)
        else if ($i == "B/op")      bytes[name, k]  = $(i - 1)
        else if ($i == "allocs/op") allocs[name, k] = $(i - 1)
        else {
            if (!((name, $i) in seenUnit)) {
                seenUnit[name, $i] = 1
                units[name] = units[name] (units[name] == "" ? "" : " ") $i
            }
            metric[name, $i, k] = $(i - 1)
        }
    }
}
END {
    nn = split(names, want, "|")
    for (i = 1; i <= nn; i++) {
        found = 0
        for (r = 1; r <= nr; r++)
            if (order[r] == "Benchmark" want[i] || index(order[r], "Benchmark" want[i] "/") == 1) found = 1
        if (!found) { print "bench_snapshot: rung " want[i] " produced no samples" > "/dev/stderr"; failed = 1 }
    }
    if (failed) exit 1
    printf "{\n  \"count\": %d,\n  \"benchtime\": \"%s\",\n", count, benchtime
    printf "  \"env\": {\"go\": \"%s\", \"os_arch\": \"%s\", \"cpu\": \"%s\", \"num_cpu\": %s, \"gomaxprocs\": %s},\n", \
        go_version, os_arch, cpu, num_cpu, gomaxprocs
    printf "  \"rungs\": ["
    for (r = 1; r <= nr; r++) {
        name = order[r]; n = samples[name]
        for (k = 1; k <= n; k++) { t[k] = ns[name, k] + 0; b[k] = bytes[name, k] + 0; a[k] = allocs[name, k] + 0 }
        sortv(t, n); sortv(b, n); sortv(a, n)
        printf "%s\n    {\"name\": \"%s\", \"pkg\": \"%s\", \"ns_per_op\": %s, \"ns_q1\": %s, \"ns_q3\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
            (r > 1 ? "," : ""), name, pkgOf[name], q(t, n, 0.5), q(t, n, 0.25), q(t, n, 0.75), q(b, n, 0.5), q(a, n, 0.5)
        if (units[name] != "") {
            nu = split(units[name], unit, " ")
            printf ", \"metrics\": {"
            for (u = 1; u <= nu; u++) {
                for (k = 1; k <= n; k++) w[k] = metric[name, unit[u], k] + 0
                sortv(w, n)
                printf "%s\"%s\": %s", (u > 1 ? ", " : ""), unit[u], q(w, n, 0.5)
            }
            printf "}"
        }
        printf "}"
    }
    printf "\n  ]\n}\n"
}
' > "$tmp"
mv "$tmp" "$out"
echo "wrote $out"
