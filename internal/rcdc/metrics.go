package rcdc

import (
	"time"

	"dcvalidate/internal/obs"
)

// Metrics is the validator's instrumentation bundle (see DESIGN.md
// "Observability"). All recording methods are nil-receiver safe no-ops,
// so a Validator without metrics pays only a nil check; with metrics the
// cost is a few atomic operations per device. Metrics never feed back
// into validation results — the differential test locks that
// instrumented and uninstrumented runs produce byte-identical reports.
type Metrics struct {
	deviceSeconds *obs.Histogram  // dcv_rcdc_device_check_seconds
	devices       *obs.Counter    // dcv_rcdc_devices_checked_total
	violations    *obs.Counter    // dcv_rcdc_violations_total
	runs          *obs.CounterVec // dcv_rcdc_validate_runs_total{mode}
	dirty         *obs.Histogram  // dcv_rcdc_delta_dirty_devices
	rechecked     *obs.Histogram  // dcv_rcdc_delta_contracts_checked
	merged        *obs.Histogram  // dcv_rcdc_delta_classes
	utilization   *obs.Gauge      // dcv_rcdc_worker_utilization_ratio
	runsClean     *obs.Counter    // dcv_rcdc_runs_total{outcome="clean"}
	runsExpanded  *obs.Counter    // dcv_rcdc_runs_total{outcome="expanded"}
}

// NewMetrics registers the validator metric families in r and returns
// the recording handles. Idempotent: a second call against the same
// registry returns handles to the same series.
func NewMetrics(r *obs.Registry) *Metrics {
	runs := r.CounterVec("dcv_rcdc_runs_total",
		"Run segments of whole-device checks: decided once per segment (clean) or expanded to per-prefix checks (expanded).", "outcome")
	return &Metrics{
		runsClean:    runs.With("clean"),
		runsExpanded: runs.With("expanded"),
		deviceSeconds: r.Histogram("dcv_rcdc_device_check_seconds",
			"Per-device contract check latency.", obs.LatencyBuckets),
		devices: r.Counter("dcv_rcdc_devices_checked_total",
			"Devices validated (all runs and modes)."),
		violations: r.Counter("dcv_rcdc_violations_total",
			"Contract violations found."),
		runs: r.CounterVec("dcv_rcdc_validate_runs_total",
			"Validation runs by mode.", "mode"),
		dirty: r.Histogram("dcv_rcdc_delta_dirty_devices",
			"Dirty-set size per delta validation run.", obs.SizeBuckets),
		rechecked: r.Histogram("dcv_rcdc_delta_contracts_checked",
			"Contracts re-checked per delta validation run.", obs.SizeBuckets),
		merged: r.Histogram("dcv_rcdc_delta_classes",
			"Dirty devices merged on their own per delta validation run: a representative per device class and worker, and each device no class covers.", obs.SizeBuckets),
		utilization: r.Gauge("dcv_rcdc_worker_utilization_ratio",
			"Sum of per-device check time over workers x run wall time, last run."),
	}
}

// observeDevice records one completed device check.
func (m *Metrics) observeDevice(rep *DeviceReport) {
	if m == nil {
		return
	}
	m.deviceSeconds.ObserveDuration(rep.Elapsed)
	m.devices.Inc()
	m.violations.Add(uint64(len(rep.Violations)))
}

// observeRun records a completed ValidateAll ("full") or ValidateDelta
// ("delta") run. dirty is the scheduled dirty-set size (recorded for
// delta runs only) and busy the summed check time of the devices this
// run actually validated (carried-forward delta results excluded). Worker
// utilization is the busy fraction of the pool: busy over workers times
// the run's wall time — 0 when the wall time is zero (virtual clocks).
func (m *Metrics) observeRun(mode string, rep *Report, dirty int, busy time.Duration) {
	if m == nil {
		return
	}
	m.runs.With(mode).Inc()
	if mode == "delta" {
		m.dirty.Observe(float64(dirty))
	}
	util := 0.0
	if rep.Elapsed > 0 && rep.Workers > 0 {
		util = float64(busy) / (float64(rep.Workers) * float64(rep.Elapsed))
	}
	m.utilization.Set(util)
}

// observeDelta records how many contracts a delta run re-checked — all of
// a whole device's, the scoped few of a row-scoped one, a representative's
// again for each device taking its verdict — and how many dirty devices it
// checked on their own rather than by class.
func (m *Metrics) observeDelta(contracts, merged int) {
	if m == nil {
		return
	}
	m.rechecked.Observe(float64(contracts))
	m.merged.Observe(float64(merged))
}

// observeRuns records the segments of one device's runs check.
func (m *Metrics) observeRuns(clean, expanded int) {
	if m == nil {
		return
	}
	m.runsClean.Add(uint64(clean))
	m.runsExpanded.Add(uint64(expanded))
}

// busyTime sums the per-device check time of a report slice.
func busyTime(reps []DeviceReport) time.Duration {
	var busy time.Duration
	for i := range reps {
		busy += reps[i].Elapsed
	}
	return busy
}
