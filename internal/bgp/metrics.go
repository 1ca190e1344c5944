package bgp

import "dcvalidate/internal/obs"

// Metrics is the EBGP-synthesis instrumentation bundle: hit/miss rates
// of the generation-keyed table cache, what each journal-driven cache
// synchronization did (rows patched in place, whole tables evicted), and
// the convergence round counts of the path-vector simulator.
// Nil-receiver safe.
type Metrics struct {
	cacheHits   *obs.Counter   // dcv_bgp_synth_cache_hits_total
	cacheMisses *obs.Counter   // dcv_bgp_synth_cache_misses_total
	rowsPatched *obs.Counter   // dcv_bgp_synth_rows_patched_total
	evicted     *obs.Counter   // dcv_bgp_synth_tables_evicted_total
	rounds      *obs.Histogram // dcv_bgp_sim_convergence_rounds
}

// NewMetrics registers the BGP metric families in r. Idempotent per
// registry.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		cacheHits: r.Counter("dcv_bgp_synth_cache_hits_total",
			"Synth table-cache hits (cache enabled only)."),
		cacheMisses: r.Counter("dcv_bgp_synth_cache_misses_total",
			"Synth table-cache misses (cache enabled only)."),
		rowsPatched: r.Counter("dcv_bgp_synth_rows_patched_total",
			"Rows of cached tables re-derived in place by a refresh."),
		evicted: r.Counter("dcv_bgp_synth_tables_evicted_total",
			"Cached tables dropped by a refresh (device dirty as a whole)."),
		rounds: r.Histogram("dcv_bgp_sim_convergence_rounds",
			"Synchronous rounds to fixpoint per Sim Run/Rerun.", obs.RoundBuckets),
	}
}

func (m *Metrics) observeCache(hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.cacheHits.Inc()
	} else {
		m.cacheMisses.Inc()
	}
}

func (m *Metrics) observeSync(patched, evicted int) {
	if m == nil {
		return
	}
	m.rowsPatched.Add(uint64(patched))
	m.evicted.Add(uint64(evicted))
}

func (m *Metrics) observeRounds(n int) {
	if m == nil {
		return
	}
	m.rounds.Observe(float64(n))
}
