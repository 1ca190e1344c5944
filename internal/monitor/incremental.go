package monitor

import (
	"fmt"
	"hash/fnv"
	"sort"

	"dcvalidate/internal/par"
)

// Incremental validation: most devices' routing tables are identical from
// cycle to cycle, so the validator can skip devices whose stored table and
// contract documents are unchanged since their last validation, carrying
// the previous result forward. This is the monitoring-loop analogue of the
// incremental techniques the paper cites ([21], [50]) — cheap because the
// store already holds the serialized documents.

func hashDocs(docs ...[]byte) uint64 {
	h := fnv.New64a()
	for _, d := range docs {
		h.Write(d)
	}
	return h.Sum64()
}

// Service is a horizontally scaled deployment (§2.6.1): the monitored
// datacenters are partitioned across instances, each with its own store
// and queue "chosen to have minimal latency from the set of devices being
// monitored". Instances run their cycles in parallel.
type Service struct {
	Instances []*Instance
}

// NewService partitions the datacenters round-robin across n instances.
func NewService(n int, dcs ...*Datacenter) *Service {
	if n < 1 {
		n = 1
	}
	if n > len(dcs) {
		n = len(dcs)
	}
	svc := &Service{}
	for i := 0; i < n; i++ {
		svc.Instances = append(svc.Instances, NewInstance(instName(i)))
	}
	for i, dc := range dcs {
		in := svc.Instances[i%n]
		in.Datacenters = append(in.Datacenters, dc)
	}
	return svc
}

func instName(i int) string { return fmt.Sprintf("instance-%d", i) }

// RunCycle runs one cycle on every instance concurrently and returns the
// per-instance stats in instance order.
func (s *Service) RunCycle() ([]CycleStats, error) {
	stats := make([]CycleStats, len(s.Instances))
	errs := make([]error, len(s.Instances))
	par.For(len(s.Instances), len(s.Instances), func(_, i int) {
		stats[i], errs[i] = s.Instances[i].RunCycle()
	})
	for _, err := range errs {
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// TotalViolations sums violations across instances for a set of stats.
func TotalViolations(stats []CycleStats) int {
	n := 0
	for _, st := range stats {
		n += st.Violations
	}
	return n
}

// Triage aggregates triage across all instances' current cycles, ordered
// high-risk first.
func (s *Service) Triage() []TriagedError {
	var out []TriagedError
	for _, in := range s.Instances {
		out = append(out, in.Analytics.Triage(in.cycle, in.Datacenters)...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Severity > out[j].Severity })
	return out
}
