#!/bin/sh
# End-to-end smoke test for the cluster tier: start 3 `powersched serve`
# backends over one shared state dir plus a `powersched route` front
# end, check stateless answers through the router are byte-identical to
# a single clean process, open and mutate sessions through the router,
# then kill -9 the backend owning the most sessions mid-traffic and
# check every session fails over — same digest, byte-identical re-solve
# — while the router's /metrics shows the retries, failover, and
# ejection counters moving. Then resize the ring to the two survivors,
# mutate every session, restart one survivor with a graceful drain
# (SIGTERM), and check every session still answers its last acked
# digest, seq, and solve. The router runs at its production timing (it
# has no tuning flags). Usage: scripts/cluster_smoke.sh [baseport]
set -eu
baseport="${1:-8940}"
refport="$baseport"
p1=$((baseport + 1)); p2=$((baseport + 2)); p3=$((baseport + 3))
rport=$((baseport + 4))
ref="http://127.0.0.1:$refport"
router="http://127.0.0.1:$rport"
work="$(mktemp -d)"
bin="$work/powersched"
state="$work/state"
mkdir -p "$state"
pids=""
trap 'for p in $pids; do kill "$p" 2>/dev/null || true; done; wait; rm -rf "$work"' EXIT

go build -o "$bin" ./cmd/powersched

wait_healthy() {
    for i in $(seq 1 50); do
        if curl -fsS "$1/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "no /healthz from $1" >&2
    exit 1
}

# The clean-process reference (in-memory) and the 3-backend cluster.
"$bin" serve -addr "127.0.0.1:$refport" -workers 1 &
pids="$pids $!"
for port in $p1 $p2 $p3; do
    "$bin" serve -addr "127.0.0.1:$port" -workers 1 -state-dir "$state" &
    pids="$pids $!"
    eval "pid_$port=\$!"
done
"$bin" route -addr "127.0.0.1:$rport" \
    -backends "http://127.0.0.1:$p1,http://127.0.0.1:$p2,http://127.0.0.1:$p3" &
pids="$pids $!"
for url in "$ref" "http://127.0.0.1:$p1" "http://127.0.0.1:$p2" "http://127.0.0.1:$p3" "$router"; do
    wait_healthy "$url"
done

req='{
  "procs": 2, "horizon": 12,
  "cost": {"model": "perproc", "alphas": [2, 4], "rates": [1, 1]},
  "jobs": [
    {"allowed": [{"proc": 0, "time": 1}, {"proc": 0, "time": 2}]},
    {"allowed": [{"proc": 0, "time": 2}, {"proc": 1, "time": 3}]},
    {"value": 2, "allowed": [{"proc": 1, "time": 8}]}
  ]
}'
mut='{"mutations":[{"op":"add_job","job":{"allowed":[{"proc":1,"time":5},{"proc":1,"time":6}]}}]}'

# Stateless requests through the router answer byte-identically to the
# clean single process (cache_hit is volatile; compare the schedule).
want="$(curl -fsS -X POST -d "$req" "$ref/v1/schedule" | jq -c .schedule)"
got="$(curl -fsS -X POST -d "$req" "$router/v1/schedule" | jq -c .schedule)"
[ "$got" = "$want" ] || { echo "routed schedule differs: $got vs $want" >&2; exit 1; }
batch_want="$(curl -fsS -X POST -d "{\"requests\": [$req, $req]}" "$ref/v1/batch" | jq -c '[.results[].schedule]')"
batch_got="$(curl -fsS -X POST -d "{\"requests\": [$req, $req]}" "$router/v1/batch" | jq -c '[.results[].schedule]')"
[ "$batch_got" = "$batch_want" ] || { echo "routed batch differs" >&2; exit 1; }

# Sessions through the router: create 6, mutate each, record the acked
# digest and the solved schedule as the pre-kill reference.
ids=""
for i in $(seq 1 6); do
    sid="$(curl -fsS -X POST -d "$req" "$router/v1/session" | jq -r .id)"
    [ -n "$sid" ] && [ "$sid" != "null" ] || { echo "session create $i failed" >&2; exit 1; }
    digest="$(curl -fsS -X POST -d "$mut" "$router/v1/session/$sid/mutate" | jq -r .digest)"
    [ -n "$digest" ] && [ "$digest" != "null" ] || { echo "mutate $sid failed" >&2; exit 1; }
    echo "$digest" > "$work/digest.$sid"
    curl -fsS -X POST "$router/v1/session/$sid/solve" | jq -c .schedule > "$work/solve.$sid"
    ids="$ids $sid"
done

# kill -9 the backend owning the most sessions — no drain, no release;
# the shared journals are the only survivors.
victim="$(curl -fsS "$router/admin/ring" | jq -r '.sessions_per_backend | to_entries | max_by(.value) | .key')"
vport="${victim##*:}"
eval "vpid=\$pid_$vport"
echo "killing backend $victim (pid $vpid)"
kill -9 "$vpid"

# Mid-traffic failover: every session must answer with its acked digest
# and a byte-identical re-solve, from whichever backend inherits it.
for sid in $ids; do
    post_digest="$(curl -fsS "$router/v1/session/$sid" | jq -r .digest)"
    [ "$post_digest" = "$(cat "$work/digest.$sid")" ] \
        || { echo "session $sid digest after failover: $post_digest != $(cat "$work/digest.$sid")" >&2; exit 1; }
    post_solve="$(curl -fsS -X POST "$router/v1/session/$sid/solve" | jq -c .schedule)"
    [ "$post_solve" = "$(cat "$work/solve.$sid")" ] \
        || { echo "session $sid re-solve after failover differs" >&2; exit 1; }
done

# Stateless traffic still byte-identical with a backend down.
got="$(curl -fsS -X POST -d "$req" "$router/v1/schedule" | jq -c .schedule)"
[ "$got" = "$want" ] || { echo "post-kill routed schedule differs" >&2; exit 1; }

# The router's counters must show what just happened: retries burned on
# the dead backend, and (once the prober catches up) its ejection.
curl -fsS "$router/metrics" | grep -q '^powersched_route_retries_total [1-9]' \
    || { echo "router /metrics shows no retries after a kill" >&2; exit 1; }
for i in $(seq 1 50); do
    if curl -fsS "$router/metrics" | grep -q '^powersched_route_ejections_total [1-9]'; then break; fi
    [ "$i" = 50 ] && { echo "router never ejected the dead backend" >&2; exit 1; }
    sleep 0.1
done
curl -fsS "$router/metrics" | grep -q '^powersched_route_sheds_total ' \
    || { echo "router /metrics missing shed counter" >&2; exit 1; }
curl -fsS "$router/stats" | jq -e '.sessions == 6 and ([.backends[] | select(.alive)] | length) == 2' >/dev/null \
    || { echo "router /stats does not show 6 sessions on 2 alive backends" >&2; exit 1; }

# Resize the ring to the two survivors, then mutate every session and
# record what was acked: digest, seq, and the solve.
survivors=""
for port in $p1 $p2 $p3; do
    [ "$port" = "$vport" ] || survivors="$survivors${survivors:+,}\"http://127.0.0.1:$port\""
done
curl -fsS -X POST -d "{\"backends\": [$survivors]}" "$router/admin/ring" \
    | jq -e '(.failed | length) == 0 and (.backends | length) == 2' >/dev/null \
    || { echo "resize to the survivors failed" >&2; exit 1; }
mut2='{"mutations":[{"op":"block","slot":{"proc":0,"time":2}}]}'
for sid in $ids; do
    curl -fsS -X POST -d "$mut2" "$router/v1/session/$sid/mutate" | jq -c '{digest, seq}' > "$work/ack.$sid"
    jq -e '.seq == 2' "$work/ack.$sid" >/dev/null || { echo "mutate $sid after resize: $(cat "$work/ack.$sid")" >&2; exit 1; }
    curl -fsS -X POST "$router/v1/session/$sid/solve" | jq -c .schedule > "$work/solve.$sid"
done

# Graceful drain of one survivor: SIGTERM, wait for it to exit, restart
# it on the same port and state dir. Its drain flush must not roll any
# session back.
for port in $p1 $p2 $p3; do
    if [ "$port" != "$vport" ]; then dport="$port"; break; fi
done
eval "dpid=\$pid_$dport"
echo "draining backend 127.0.0.1:$dport (pid $dpid)"
kill -TERM "$dpid"
wait "$dpid" || { echo "backend 127.0.0.1:$dport did not drain cleanly" >&2; exit 1; }
"$bin" serve -addr "127.0.0.1:$dport" -workers 1 -state-dir "$state" &
pids="$pids $!"
wait_healthy "http://127.0.0.1:$dport"
for i in $(seq 1 100); do
    if curl -fsS "$router/stats" | jq -e '[.backends[] | select(.alive)] | length == 2' >/dev/null; then break; fi
    [ "$i" = 100 ] && { echo "router never readmitted the restarted backend" >&2; exit 1; }
    sleep 0.1
done
for sid in $ids; do
    got="$(curl -fsS "$router/v1/session/$sid" | jq -c '{digest, seq}')"
    [ "$got" = "$(cat "$work/ack.$sid")" ] \
        || { echo "session $sid after drain+restart: $got, acked $(cat "$work/ack.$sid")" >&2; exit 1; }
    post_solve="$(curl -fsS -X POST "$router/v1/session/$sid/solve" | jq -c .schedule)"
    [ "$post_solve" = "$(cat "$work/solve.$sid")" ] \
        || { echo "session $sid re-solve after drain+restart differs" >&2; exit 1; }
done

echo "cluster smoke OK (byte-identical routing + kill -9 failover + resize + graceful restart)"
