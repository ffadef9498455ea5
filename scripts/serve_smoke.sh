#!/bin/sh
# End-to-end smoke test for the serving layer: start `powersched serve`,
# wait for /healthz, post the same instance three times, and check that
# the response schedules the jobs, that the second request registered as
# a digest-cache hit in /stats, and that the third (answered from the
# stored reply bytes) is byte-identical to the second. Then the durability phase: restart with
# -state-dir, create and mutate a session, kill -9 the server, restart on
# the same state dir, and check that no session is loaded before traffic
# and that the first touch restores the session with the same digest
# and a byte-identical schedule. Usage: scripts/serve_smoke.sh [port]
set -eu
port="${1:-8931}"
base="http://127.0.0.1:$port"
bin="$(mktemp -d)/powersched"
state="$(mktemp -d)"
pid=""
trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null || true; rm -rf "$(dirname "$bin")" "$state"' EXIT

go build -o "$bin" ./cmd/powersched

wait_healthy() {
    for i in $(seq 1 50); do
        if curl -fsS "$base/healthz" >/dev/null 2>&1; then return 0; fi
        if ! kill -0 "$pid" 2>/dev/null; then echo "serve exited early" >&2; exit 1; fi
        sleep 0.1
    done
    curl -fsS "$base/healthz" >/dev/null
}

"$bin" serve -addr "127.0.0.1:$port" -workers 2 &
pid=$!
wait_healthy
curl -fsS "$base/healthz" | grep -q '"ok": true'

req='{
  "procs": 2, "horizon": 12,
  "cost": {"model": "perproc", "alphas": [2, 4], "rates": [1, 1]},
  "jobs": [
    {"allowed": [{"proc": 0, "time": 1}, {"proc": 0, "time": 2}]},
    {"allowed": [{"proc": 0, "time": 2}, {"proc": 1, "time": 3}]},
    {"value": 2, "allowed": [{"proc": 1, "time": 8}]}
  ]
}'

first="$(curl -fsS -X POST -d "$req" "$base/v1/schedule")"
echo "$first" | jq -e '.schedule.scheduled == 3 and (.schedule.intervals | length) >= 1 and (.cache_hit == false)' >/dev/null \
    || { echo "unexpected first response: $first" >&2; exit 1; }

# The second post is a digest hit, encoded once and stored; the third is
# answered from those stored bytes and must match the second byte for byte.
replies="$(dirname "$bin")"
curl -fsS -X POST -d "$req" -o "$replies/second.json" "$base/v1/schedule"
jq -e '.cache_hit == true' "$replies/second.json" >/dev/null \
    || { echo "repeat request missed the cache: $(cat "$replies/second.json")" >&2; exit 1; }
[ "$(echo "$first" | jq -c .schedule)" = "$(jq -c .schedule "$replies/second.json")" ] \
    || { echo "cached schedule differs" >&2; exit 1; }
curl -fsS -X POST -d "$req" -o "$replies/third.json" "$base/v1/schedule"
cmp "$replies/second.json" "$replies/third.json" \
    || { echo "stored-reply hit differs from the digest hit" >&2; exit 1; }

curl -fsS "$base/stats" | jq -e '.cache_hits >= 2 and .submitted >= 3 and .errors == 0' >/dev/null \
    || { echo "stats do not show the cache hits" >&2; exit 1; }

batch_ok="$(curl -fsS -X POST -d "{\"requests\": [$req, $req]}" "$base/v1/batch" | jq '[.results[] | select(.error == null or .error == "")] | length')"
[ "$batch_ok" = "2" ] || { echo "batch results: $batch_ok of 2 ok" >&2; exit 1; }

# Graceful drain: SIGTERM must stop the server cleanly.
kill -TERM "$pid"
wait "$pid"
pid=""

# --- Durability phase: session state survives kill -9. ---
"$bin" serve -addr "127.0.0.1:$port" -workers 2 -state-dir "$state" &
pid=$!
wait_healthy

created="$(curl -fsS -X POST -d "$req" "$base/v1/session")"
sid="$(echo "$created" | jq -r .id)"
[ -n "$sid" ] && [ "$sid" != "null" ] || { echo "session create failed: $created" >&2; exit 1; }

mutated="$(curl -fsS -X POST -d '{"mutations":[{"op":"add_job","job":{"allowed":[{"proc":1,"time":5},{"proc":1,"time":6}]}}]}' \
    "$base/v1/session/$sid/mutate")"
pre_digest="$(echo "$mutated" | jq -r .digest)"
[ -n "$pre_digest" ] && [ "$pre_digest" != "null" ] || { echo "mutate failed: $mutated" >&2; exit 1; }
pre_solve="$(curl -fsS -X POST "$base/v1/session/$sid/solve" | jq -c .schedule)"
[ "$pre_solve" != "null" ] || { echo "pre-crash solve failed" >&2; exit 1; }

# The crash: no drain, no flush — only the journal survives.
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""

"$bin" serve -addr "127.0.0.1:$port" -workers 2 -state-dir "$state" &
pid=$!
wait_healthy

# The restarted process must re-export its counters on /metrics before
# any traffic arrives. No journal is read at startup: no session is
# live, none restored, none quarantined.
metrics="$(curl -fsS "$base/metrics")"
for want in '^powersched_sessions 0$' \
            '^powersched_sessions_restored_total 0$' \
            '^powersched_journals_dropped_corrupt_total 0$' \
            '^powersched_journal_records_total [0-9]' \
            '^powersched_submitted_total 0$'; do
    echo "$metrics" | grep -q "$want" \
        || { echo "post-restart /metrics missing $want" >&2; echo "$metrics" >&2; exit 1; }
done

# The first touch restores the session from its journal.
post_digest="$(curl -fsS "$base/v1/session/$sid" | jq -r .digest)"
[ "$post_digest" = "$pre_digest" ] \
    || { echo "restored digest $post_digest != pre-crash $pre_digest" >&2; exit 1; }
metrics="$(curl -fsS "$base/metrics")"
for want in '^powersched_sessions 1$' \
            '^powersched_sessions_restored_total 1$'; do
    echo "$metrics" | grep -q "$want" \
        || { echo "/metrics after the first touch missing $want" >&2; echo "$metrics" >&2; exit 1; }
done
post_solve="$(curl -fsS -X POST "$base/v1/session/$sid/solve" | jq -c .schedule)"
[ "$post_solve" = "$pre_solve" ] \
    || { echo "restored solve differs: $post_solve vs $pre_solve" >&2; exit 1; }

curl -fsS "$base/metrics" | grep -q '^powersched_sessions_restored_total 1$' \
    || { echo "/metrics does not report the restored session" >&2; exit 1; }

kill -TERM "$pid"
wait "$pid"
pid=""
echo "serve smoke OK (cache + crash-restart)"
