package bgp

import "dcvalidate/internal/obs"

// Metrics is the EBGP-synthesis instrumentation bundle: the convergence
// round counts of the path-vector simulator. Nil-receiver safe.
type Metrics struct {
	rounds *obs.Histogram // dcv_bgp_sim_convergence_rounds
}

// NewMetrics registers the BGP metric families in r. Idempotent per
// registry.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		rounds: r.Histogram("dcv_bgp_sim_convergence_rounds",
			"Synchronous rounds to fixpoint per Sim Run/Rerun.", obs.RoundBuckets),
	}
}

func (m *Metrics) observeRounds(n int) {
	if m == nil {
		return
	}
	m.rounds.Observe(float64(n))
}
