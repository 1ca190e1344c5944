package shard

import (
	"strconv"
	"time"

	"dcvalidate/internal/obs"
)

// Metrics is the coordinator instrumentation bundle. All recording
// methods are nil-receiver-safe no-ops, matching the other subsystem
// bundles.
type Metrics struct {
	sweeps       *obs.CounterVec // dcv_shard_sweeps_total{mode}
	devices      *obs.GaugeVec   // dcv_shard_devices{shard}
	sweepSeconds *obs.Histogram  // dcv_shard_sweep_seconds
}

// NewMetrics registers the coordinator metric families in r and returns
// the recording handles. Idempotent, like every bundle constructor.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		sweeps: r.CounterVec("dcv_shard_sweeps_total",
			"Coordinator sweeps by mode (full, delta, cached).", "mode"),
		devices: r.GaugeVec("dcv_shard_devices",
			"Devices assigned to each shard by the consistent-hash ring.", "shard"),
		sweepSeconds: r.Histogram("dcv_shard_sweep_seconds",
			"End-to-end coordinator sweep latency.", obs.LatencyBuckets),
	}
}

func (m *Metrics) observeSweep(mode string, d time.Duration) {
	if m == nil {
		return
	}
	m.sweeps.With(mode).Inc()
	if mode != "cached" {
		m.sweepSeconds.ObserveDuration(d)
	}
}

func (m *Metrics) observeAssignment(shard, devices int) {
	if m != nil {
		m.devices.With(strconv.Itoa(shard)).Set(float64(devices))
	}
}
