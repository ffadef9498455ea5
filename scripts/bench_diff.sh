#!/bin/sh
# Compares two bench_snapshot.sh ladders rung by rung: median ns/op,
# each side's q1–q3 band, and allocs/op. Informational only — it always
# exits 0.
#
# A rung is flagged REGRESS only when the bands do not overlap on the
# slow side: the current q1 is above the baseline q3, so even the
# current run's faster half is slower than the baseline's slower half.
# Wobble inside the measured spread passes silently, and so do
# improvements. Allocation counts hardly move with noise, so any
# allocs/op growth is flagged ALLOCS+. Work counters (the "metrics" a
# rung reports, such as edges/op) do not depend on the host at all, so
# any change in one the baseline records, up or down, is flagged WORK±
# and listed in the last column, even across environments. Rungs only in the current
# snapshot print as "new"; rungs only in the baseline print as
# "removed" after the rest.
#
# Each snapshot records its capture environment. When the two differ,
# ns/op deltas are noise, not signal: the diff still prints, under a
# warning, and REGRESS is not flagged.
#
# Usage: scripts/bench_diff.sh base.json cur.json
set -u
base="${1:?usage: bench_diff.sh base.json cur.json}"
cur="${2:?usage: bench_diff.sh base.json cur.json}"

env_of() {
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
fi

awk -v env_match="$env_match" '
function num(line, key,    s) {
    if (match(line, "\"" key "\": *[0-9.]+")) {
        s = substr(line, RSTART, RLENGTH)
        sub(/^[^:]*: */, "", s)
        return s + 0
    }
    return 0
}
function band(q1, q3) { return sprintf("[%.0f, %.0f]", q1, q3) }
# metricsOf returns the work counters of a rung line as "unit:value,...".
function metricsOf(line,    s) {
    if (!match(line, /"metrics": *\{[^}]*\}/)) return ""
    s = substr(line, RSTART, RLENGTH)
    sub(/^"metrics": *\{/, "", s)
    sub(/\}$/, "", s)
    gsub(/[" ]/, "", s)
    return s
}
# workDiff lists the counters of base whose value differs in cur (or
# that cur lacks) as "unit base->cur", space-separated.
function workDiff(base, cur,    nb, bp, nc, cp, cv, i, kv, out) {
    nc = split(cur, cp, ",")
    for (i = 1; i <= nc; i++) { split(cp[i], kv, ":"); cv[kv[1]] = kv[2] }
    nb = split(base, bp, ",")
    out = ""
    for (i = 1; i <= nb; i++) {
        split(bp[i], kv, ":")
        if (!(kv[1] in cv))
            out = out (out == "" ? "" : " ") kv[1] " " kv[2] "->-"
        else if (cv[kv[1]] + 0 != kv[2] + 0)
            out = out (out == "" ? "" : " ") kv[1] " " kv[2] "->" cv[kv[1]]
    }
    return out
}
FNR == 1 { file++ }
/"name":/ {
    split($0, parts, "\"")
    name = parts[4]
    if (file == 1) {
        baseNs[name] = num($0, "ns_per_op")
        baseQ1[name] = num($0, "ns_q1")
        baseQ3[name] = num($0, "ns_q3")
        baseAllocs[name] = num($0, "allocs_per_op")
        baseWork[name] = metricsOf($0)
        baseOrder[++nBase] = name
    } else {
        curNs[name] = num($0, "ns_per_op")
        curQ1[name] = num($0, "ns_q1")
        curQ3[name] = num($0, "ns_q3")
        curAllocs[name] = num($0, "allocs_per_op")
        curWork[name] = metricsOf($0)
        order[++n] = name
    }
}
END {
    fmt = "%-34s %12s %12s %8s %22s %22s %7s %-15s %s\n"
    printf fmt, "rung", "base ns/op", "cur ns/op", "delta", "base q1-q3", "cur q1-q3", "allocs", "flag", "work"
    for (i = 1; i <= n; i++) {
        name = order[i]
        if (!(name in baseNs) || baseNs[name] <= 0) {
            printf fmt, name, "-", sprintf("%.0f", curNs[name]), "new", "-", band(curQ1[name], curQ3[name]), "-", "", ""
            continue
        }
        flag = ""
        if (curAllocs[name] > baseAllocs[name])
            flag = "ALLOCS+"
        # Only when the environments match and the baseline has a band.
        if (env_match && baseQ3[name] > 0 && curQ1[name] > baseQ3[name])
            flag = flag (flag == "" ? "" : ",") "REGRESS"
        work = workDiff(baseWork[name], curWork[name])
        if (work != "")
            flag = flag (flag == "" ? "" : ",") "WORK±"
        dAllocs = curAllocs[name] - baseAllocs[name]
        printf fmt, name, sprintf("%.0f", baseNs[name]), sprintf("%.0f", curNs[name]),
            sprintf("%+.1f%%", (curNs[name] - baseNs[name]) * 100 / baseNs[name]),
            band(baseQ1[name], baseQ3[name]), band(curQ1[name], curQ3[name]),
            (dAllocs == 0 ? "=" : sprintf("%+d", dAllocs)), flag, work
    }
    for (i = 1; i <= nBase; i++) {
        name = baseOrder[i]
        if (!(name in curNs))
            printf fmt, name, sprintf("%.0f", baseNs[name]), "-", "removed", band(baseQ1[name], baseQ3[name]), "-", "-", "", ""
    }
}
' "$base" "$cur"
exit 0
