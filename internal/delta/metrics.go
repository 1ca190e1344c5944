package delta

import "dcvalidate/internal/obs"

// Metrics is the blast-radius instrumentation bundle. Compute records
// one observation per call: for bounded results the dirty-device count,
// how many of those devices got a row scope versus the whole device, and
// the rows in scope; or a full-fallback counter tick when a rule degrades
// to the whole-DC set. Nil-receiver safe.
type Metrics struct {
	dirty  *obs.Histogram // dcv_delta_blast_radius_devices
	rows   *obs.Histogram // dcv_delta_dirty_rows
	scoped *obs.Counter   // dcv_delta_scoped_devices_total
	whole  *obs.Counter   // dcv_delta_whole_devices_total
	full   *obs.Counter   // dcv_delta_full_fallbacks_total
}

// NewMetrics registers the delta metric families in r. Idempotent per
// registry.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		dirty: r.Histogram("dcv_delta_blast_radius_devices",
			"Dirty devices per bounded blast-radius computation.", obs.SizeBuckets),
		rows: r.Histogram("dcv_delta_dirty_rows",
			"FIB rows in scope on row-scoped devices per bounded blast-radius computation.", obs.SizeBuckets),
		scoped: r.Counter("dcv_delta_scoped_devices_total",
			"Dirty devices given a row scope."),
		whole: r.Counter("dcv_delta_whole_devices_total",
			"Dirty devices with every row in scope."),
		full: r.Counter("dcv_delta_full_fallbacks_total",
			"Blast-radius computations that degraded to the whole-DC set."),
	}
}

func (m *Metrics) observeSet(s *Set) {
	if m == nil {
		return
	}
	if s.full {
		m.full.Inc()
		return
	}
	var scoped, whole, rows int
	for _, sc := range s.devs {
		if sc.Whole {
			whole++
			continue
		}
		scoped++
		rows += len(sc.Rows)
	}
	m.dirty.Observe(float64(len(s.devs)))
	m.rows.Observe(float64(rows))
	m.scoped.Add(uint64(scoped))
	m.whole.Add(uint64(whole))
}
