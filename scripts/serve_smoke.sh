#!/usr/bin/env bash
# Serving-plane smoke test (CI: make serve-smoke): boot dcvalidated on a
# small topology, issue conformance and reachability queries, and fail
# unless repeat queries land as dcv_serve_cache_hits_total increments
# without extra revalidation sweeps and a link flip surfaces as exactly
# one fresh sweep.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${SERVE_PORT:-9378}"
ADDR="127.0.0.1:${PORT}"
BASE="http://$ADDR"
LOG="$(mktemp)"
PID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    rm -f "$LOG"
}
trap cleanup EXIT

go run ./cmd/dcvalidated -addr "$ADDR" \
    -clusters 2 -tors 4 -leaves 2 -spines 2 -rs 2 -rslinks 1 >"$LOG" 2>&1 &
PID=$!

# Wait for the warm sweep + listener.
for _ in $(seq 1 150); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "serve_smoke: dcvalidated exited before serving" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.2
done
if ! curl -fsS "$BASE/healthz" >/dev/null 2>&1; then
    echo "serve_smoke: timed out waiting for dcvalidated" >&2
    cat "$LOG" >&2
    exit 1
fi

hits() {
    curl -fsS "$BASE/metrics" |
        awk '$1 == "dcv_serve_cache_hits_total" { print int($2); found = 1 }
             END { if (!found) print 0 }'
}
sweeps() {
    curl -fsS "$BASE/metrics" |
        awk '$1 ~ /^dcv_serve_sweeps_total/ { n += $2 } END { print int(n) }'
}

TOR="dc-c0-t0-0"
REMOTE="dc-c1-t0-0"

# Conformance query: the healthy fleet must answer conformant.
DEV="$(curl -fsS "$BASE/device?name=$TOR")"
echo "$DEV" | grep -q '"conformant": true' || {
    echo "serve_smoke: $TOR not conformant on a healthy fleet:" >&2
    echo "$DEV" >&2
    exit 1
}

# Reachability query with a counterexample-capable answer shape.
REACH="$(curl -fsS "$BASE/reach?src=$TOR&dst=$REMOTE")"
echo "$REACH" | grep -q '"reaches": true' || {
    echo "serve_smoke: $TOR cannot reach $REMOTE on a healthy fleet:" >&2
    echo "$REACH" >&2
    exit 1
}

# Repeat queries must be O(1) cache hits: the hit counter increments and
# no additional sweep runs.
H0="$(hits)"; S0="$(sweeps)"
for _ in 1 2 3; do
    curl -fsS "$BASE/device?name=$TOR" >/dev/null
    curl -fsS "$BASE/summary" >/dev/null
done
H1="$(hits)"; S1="$(sweeps)"
if [ "$H1" -lt $((H0 + 6)) ]; then
    echo "serve_smoke: cache hits went $H0 -> $H1 over 6 repeat queries (want +6)" >&2
    exit 1
fi
if [ "$S1" -ne "$S0" ]; then
    echo "serve_smoke: repeat queries triggered revalidation ($S0 -> $S1 sweeps)" >&2
    exit 1
fi

# A mutation through the API invalidates the cache (one new sweep), and
# the violation surfaces in a fresh device answer — new
# generation, not served from cache; restoring the link heals it the same
# way.
generation() { sed -n 's/.*"generation": *\([0-9]*\).*/\1/p' | head -n 1; }
G1="$(echo "$DEV" | generation)"
curl -fsS -X POST "$BASE/link?a=$TOR&b=dc-c0-t1-0&action=fail" >/dev/null
DEV="$(curl -fsS "$BASE/device?name=$TOR")"
G2="$(echo "$DEV" | generation)"
if ! echo "$DEV" | grep -q '"conformant": false' || ! echo "$DEV" | grep -q '"cached": false' || [ "$G2" -le "$G1" ]; then
    echo "serve_smoke: failed link did not surface as a fresh violation on $TOR (generation $G1 -> $G2):" >&2
    echo "$DEV" >&2
    exit 1
fi
S2="$(sweeps)"
if [ "$S2" -ne $((S1 + 1)) ]; then
    echo "serve_smoke: post-mutation query ran $((S2 - S1)) sweeps (want exactly 1)" >&2
    exit 1
fi
curl -fsS -X POST "$BASE/link?a=$TOR&b=dc-c0-t1-0&action=restore" >/dev/null
DEV="$(curl -fsS "$BASE/device?name=$TOR")"
G3="$(echo "$DEV" | generation)"
if ! echo "$DEV" | grep -q '"conformant": true' || [ "$G3" -le "$G2" ]; then
    echo "serve_smoke: restored link did not heal $TOR (generation $G2 -> $G3):" >&2
    echo "$DEV" >&2
    exit 1
fi

kill "$PID" 2>/dev/null || true
PID=""
echo "serve_smoke: ok (hits $H0 -> $H1, sweeps $S0 -> $S2)"
