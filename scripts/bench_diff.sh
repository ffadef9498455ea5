#!/bin/sh
# Prints per-benchmark ns/op and allocs/op deltas between two
# bench_snapshot.sh JSONs. Informational only — always exits 0, so the CI
# step that runs it can surface drift without letting benchmark noise
# (-benchtime 3x wobbles ±20%) fail the build.
#
# Timing comparisons are one-sided: a benchmark is flagged (REGRESS) only
# when it got slower by more than the tolerance; improvements and
# in-tolerance wobble pass silently. Allocation counts are deterministic,
# so any allocs/op growth at all is flagged. Benchmarks only in the
# current snapshot print as "new"; benchmarks only in the baseline print
# as "removed" rows after the rest, so a deleted benchmark shows up in
# the drift report instead of silently vanishing.
#
# Snapshots carry the environment they were captured in. When the two
# environments differ (CPU count, GOMAXPROCS, go version, architecture),
# ns/op deltas are noise, not signal: the diff still prints, but under a
# loud warning banner and with regression flagging suppressed. Set
# BENCH_DIFF_STRICT=1 to refuse mismatched environments outright
# (exit 2) — the CI perf job does.
#
# Usage: [BENCH_DIFF_STRICT=1] [BENCH_DIFF_TOLERANCE=25] \
#        scripts/bench_diff.sh BENCH_baseline.json BENCH_current.json
set -u
base="${1:?usage: bench_diff.sh baseline.json current.json}"
cur="${2:?usage: bench_diff.sh baseline.json current.json}"
tolerance="${BENCH_DIFF_TOLERANCE:-25}"
strict="${BENCH_DIFF_STRICT:-0}"

env_of() {
    # The env line is absent from pre-PR9 snapshots; report "unrecorded".
    grep -o '"env": *{[^}]*}' "$1" 2>/dev/null || echo "unrecorded"
}
base_env="$(env_of "$base")"
cur_env="$(env_of "$cur")"
env_match=1
if [ "$base_env" != "$cur_env" ]; then
    env_match=0
    echo "WARNING: benchmark environments differ — ns/op deltas below are NOISE, not signal." >&2
    echo "  baseline: $base_env" >&2
    echo "  current:  $cur_env" >&2
    if [ "$strict" = "1" ]; then
        echo "BENCH_DIFF_STRICT=1: refusing to compare across environments." >&2
        exit 2
    fi
fi

awk -v tolerance="$tolerance" -v env_match="$env_match" '
function num(line, key,    s) {
    if (match(line, "\"" key "\": *[0-9.]+")) {
        s = substr(line, RSTART, RLENGTH)
        sub(/^[^:]*: */, "", s)
        return s + 0
    }
    return 0
}
FNR == 1 { file++ }
/"name":/ {
    split($0, parts, "\"")
    name = parts[4]
    if (file == 1) {
        baseNs[name] = num($0, "ns_per_op")
        baseAllocs[name] = num($0, "allocs_per_op")
        baseOrder[++nBase] = name
    } else {
        curNs[name] = num($0, "ns_per_op")
        curAllocs[name] = num($0, "allocs_per_op")
        order[++n] = name
    }
}
END {
    printf "%-42s %14s %14s %9s %9s %9s\n", "benchmark", "base ns/op", "cur ns/op", "ns delta", "allocs", "flag"
    for (i = 1; i <= n; i++) {
        name = order[i]
        if (name in baseNs && baseNs[name] > 0) {
            flag = ""
            dNs = (curNs[name] - baseNs[name]) * 100 / baseNs[name]
            dAllocs = "="
            if (baseAllocs[name] > 0) {
                dAllocs = sprintf("%+.0f%%", (curAllocs[name] - baseAllocs[name]) * 100 / baseAllocs[name])
                if (curAllocs[name] > baseAllocs[name])
                    flag = "ALLOCS+"
            }
            # One-sided: only slowdowns beyond tolerance are flagged, and
            # only when the environments are comparable.
            if (env_match && dNs > tolerance)
                flag = flag (flag == "" ? "" : ",") "REGRESS"
            printf "%-42s %14.0f %14.0f %+8.1f%% %9s %9s\n", name, baseNs[name], curNs[name], dNs, dAllocs, flag
        } else {
            printf "%-42s %14s %14.0f %9s %9s %9s\n", name, "-", curNs[name], "new", "-", ""
        }
    }
    for (i = 1; i <= nBase; i++) {
        name = baseOrder[i]
        if (!(name in curNs))
            printf "%-42s %14.0f %14s %9s %9s %9s\n", name, baseNs[name], "-", "removed", "-", ""
    }
}
' "$base" "$cur"
exit 0
