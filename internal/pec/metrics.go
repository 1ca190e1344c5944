package pec

import (
	"time"

	"dcvalidate/internal/obs"
)

// Metrics is the PEC engine's instrumentation bundle (see DESIGN.md
// "Observability"). All recording methods are nil-receiver-safe no-ops,
// matching the other engine bundles, and never feed back into results —
// instrumented and uninstrumented runs stay byte-identical.
type Metrics struct {
	atomizeSeconds *obs.Histogram  // dcv_pec_atomize_seconds
	atomsPerDevice *obs.Histogram  // dcv_pec_atoms_per_device
	cache          *obs.CounterVec // dcv_pec_device_cache_total{result}
	bitsetOps      *obs.Counter    // dcv_pec_bitset_ops_total
	slowContracts  *obs.Counter    // dcv_pec_slowpath_contracts_total
	hopSets        *obs.Gauge      // dcv_pec_hop_sets
}

// NewMetrics registers the PEC metric families in r and returns the
// recording handles. Idempotent against one registry.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		atomizeSeconds: r.Histogram("dcv_pec_atomize_seconds",
			"Per-device atomization plus class evaluation latency (cache misses only).",
			obs.LatencyBuckets),
		atomsPerDevice: r.Histogram("dcv_pec_atoms_per_device",
			"Packet equivalence classes per atomized device.", obs.SizeBuckets),
		cache: r.CounterVec("dcv_pec_device_cache_total",
			"Per-device checks by atomization-cache outcome.", "result"),
		bitsetOps: r.Counter("dcv_pec_bitset_ops_total",
			"64-bit bitset words scanned or written while evaluating contracts."),
		slowContracts: r.Counter("dcv_pec_slowpath_contracts_total",
			"Contracts that required the exact trie-order replay path."),
		hopSets: r.Gauge("dcv_pec_hop_sets",
			"Distinct interned ECMP next-hop sets."),
	}
}

func (m *Metrics) observeCache(hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.cache.With("hit").Inc()
	} else {
		m.cache.With("miss").Inc()
	}
}

func (m *Metrics) observeAtomize(d time.Duration, atoms int) {
	if m == nil {
		return
	}
	m.atomizeSeconds.ObserveDuration(d)
	m.atomsPerDevice.Observe(float64(atoms))
}

func (m *Metrics) observeEval(bitsetOps, slowContracts int64, hopSets int) {
	if m == nil {
		return
	}
	m.bitsetOps.Add(uint64(bitsetOps))
	m.slowContracts.Add(uint64(slowContracts))
	m.hopSets.Set(float64(hopSets))
}
