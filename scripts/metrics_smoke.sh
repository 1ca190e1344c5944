#!/usr/bin/env bash
# Metrics smoke test (CI: make metrics-smoke): run a short fault-free
# dcmon with -metrics-addr, wait for the run to finish (the process
# lingers serving /metrics until interrupted), scrape the exposition,
# and fail if any required series is missing, any value is NaN/Inf, or
# the pprof index is not being served.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${METRICS_PORT:-9377}"
ADDR="127.0.0.1:${PORT}"
OUT="$(mktemp)"
LOG="$(mktemp)"
PID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    rm -f "$OUT" "$LOG"
}
trap cleanup EXIT

go run ./cmd/dcmon -clusters 2 -tors 4 -faults 0 -cycles 4 \
    -metrics-addr "$ADDR" >"$LOG" 2>&1 &
PID=$!

# Wait for the run to complete: dcmon prints the linger banner once all
# cycles have been recorded, so the scraped counters are final.
for _ in $(seq 1 150); do
    if grep -q "interrupt to exit" "$LOG"; then
        break
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "metrics_smoke: dcmon exited before serving metrics" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.2
done
if ! grep -q "interrupt to exit" "$LOG"; then
    echo "metrics_smoke: timed out waiting for the dcmon run to finish" >&2
    cat "$LOG" >&2
    exit 1
fi

curl -fsS "http://$ADDR/metrics" -o "$OUT"
curl -fsS "http://$ADDR/debug/pprof/" >/dev/null

fail=0
for series in \
    dcv_monitor_cycles_total \
    dcv_monitor_cycle_seconds_count \
    dcv_monitor_devices_total \
    dcv_monitor_modeled_pull_seconds_sum \
    dcv_monitor_unmonitored_devices \
    dcv_rcdc_devices_checked_total \
    dcv_rcdc_device_check_seconds_count \
    dcv_delta_blast_radius_devices_count \
    dcv_delta_dirty_rows_count \
    dcv_delta_scoped_devices_total; do
    if ! grep -q "^${series}" "$OUT"; then
        echo "metrics_smoke: required series ${series} missing from /metrics" >&2
        fail=1
    fi
done

# No sample value may be NaN or infinite ('+Inf' is legal only as a
# bucket le label, never as a value).
if grep -E ' (NaN|[+-]Inf)$' "$OUT" >&2; then
    echo "metrics_smoke: non-finite sample values in /metrics" >&2
    fail=1
fi

# The run must have actually counted cycles and devices.
if ! awk '$1 == "dcv_monitor_devices_total" { found = 1; exit !($2 > 0) }
          END { if (!found) exit 1 }' "$OUT"; then
    echo "metrics_smoke: dcv_monitor_devices_total is zero or missing" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "--- /metrics ---" >&2
    cat "$OUT" >&2
    exit 1
fi
echo "metrics_smoke: ok ($(wc -l <"$OUT") exposition lines from $ADDR)"
