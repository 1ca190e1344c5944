package engine

import (
	"time"

	"dcvalidate/internal/obs"
)

// Metrics is the serving-layer instrumentation bundle: query-cache
// effectiveness and query latency. All recording methods are
// nil-receiver-safe no-ops, matching every other subsystem bundle, so an
// Engine without observability pays only nil checks.
type Metrics struct {
	cacheHits     *obs.Counter      // dcv_serve_cache_hits_total
	cacheMisses   *obs.Counter      // dcv_serve_cache_misses_total
	querySeconds  *obs.HistogramVec // dcv_serve_query_seconds{kind}
	queries       *obs.CounterVec   // dcv_serve_queries_total{kind}
	sweeps        *obs.CounterVec   // dcv_serve_sweeps_total{mode}
	reportDevices *obs.Gauge        // dcv_serve_report_devices
}

// NewMetrics registers the serving metric families in r and returns the
// recording handles. Idempotent, like every bundle constructor.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		cacheHits: r.Counter("dcv_serve_cache_hits_total",
			"Queries answered from the generation-keyed report cache with no revalidation work."),
		cacheMisses: r.Counter("dcv_serve_cache_misses_total",
			"Queries that found the report cache stale and triggered a revalidation."),
		querySeconds: r.HistogramVec("dcv_serve_query_seconds",
			"Query latency by kind (device, reach, summary).", obs.LatencyBuckets, "kind"),
		queries: r.CounterVec("dcv_serve_queries_total",
			"Queries served by kind.", "kind"),
		sweeps: r.CounterVec("dcv_serve_sweeps_total",
			"Report-cache refreshes; mode is always single.", "mode"),
		reportDevices: r.Gauge("dcv_serve_report_devices",
			"Devices covered by the cached report."),
	}
}

func (m *Metrics) hit() {
	if m != nil {
		m.cacheHits.Inc()
	}
}

func (m *Metrics) miss() {
	if m != nil {
		m.cacheMisses.Inc()
	}
}

func (m *Metrics) observeQuery(kind string, d time.Duration) {
	if m == nil {
		return
	}
	m.queries.With(kind).Inc()
	m.querySeconds.With(kind).ObserveDuration(d)
}

// observeSweep counts one report-cache refresh. The series keeps its
// mode="single" label so existing scrapers read the same name.
func (m *Metrics) observeSweep(devices int) {
	if m == nil {
		return
	}
	m.sweeps.With("single").Inc()
	m.reportDevices.Set(float64(devices))
}
