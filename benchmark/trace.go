package main

import (
	"sort"
	"sync"
	"time"

	"dcvalidate/internal/contracts"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// tracer records spans in memory from the benchmark's side of each layer
// boundary — the program under test carries no span of its own. It is
// safe for concurrent use because rcdc.Validator pulls tables and runs
// checks on its worker goroutine even at Workers=1.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// span is one traced call: name, start/end as offsets from the tracer's
// epoch, and the span that caused it (-1 for a root).
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	return now - t.spans[id].start
}

// selfTimes derives each span's self time: its duration minus the part of
// its interval its children cover. Children may overlap each other (two
// workers under one sweep), so their intervals are unioned, not summed,
// and clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered := time.Duration(0)
		edge := s.start // everything before edge is already accounted for
		for _, k := range kids {
			lo, hi := max(spans[k].start, edge), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// stage is the per-name roll-up of a trace: how many spans, their summed
// duration and their summed self time.
type stage struct {
	count       int
	total, self time.Duration
}

func (t *tracer) stages() map[string]stage {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	out := map[string]stage{}
	for i, s := range t.spans {
		st := out[s.name]
		st.count++
		st.total += s.end - s.start
		st.self += self[i]
		out[s.name] = st
	}
	return out
}

// durations returns every span of one name as a timing row in µs.
func (t *tracer) durations(name string) samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out samples
	for _, s := range t.spans {
		if s.name == name {
			out.add(us(s.end - s.start))
		}
	}
	return out
}

// overheadShare estimates what recording cost the traced work: spans
// recorded times the calibrated cost of one, over the time the root spans
// cover. Used where a traced pipeline has no undecorated twin to time
// against.
func (t *tracer) overheadShare() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := time.Duration(0)
	for _, s := range t.spans {
		if s.parent < 0 {
			covered += s.end - s.start
		}
	}
	return safeDiv(float64(len(t.spans))*spanCost().Seconds(), covered.Seconds())
}

// tracedSource decorates a fib.Source with a span per table pull and
// counts the entries it hands out.
type tracedSource struct {
	inner   fib.Source
	tr      *tracer
	parent  int
	entries int // summed tbl.Len(); written by the validator's single worker
}

func (s *tracedSource) Table(d topology.DeviceID) (*fib.Table, error) {
	id := s.tr.begin("bgp.table", s.parent)
	tbl, err := s.inner.Table(d)
	s.tr.end(id)
	if tbl != nil {
		s.entries += tbl.Len()
	}
	return tbl, err
}

// tracedChecker decorates an rcdc.Checker with a span per device check.
type tracedChecker struct {
	inner  rcdc.Checker
	tr     *tracer
	parent int
}

func (c *tracedChecker) CheckDevice(tbl *fib.Table, dc contracts.DeviceContracts, role topology.Role) ([]rcdc.Violation, error) {
	id := c.tr.begin("rcdc.check", c.parent)
	v, err := c.inner.CheckDevice(tbl, dc, role)
	c.tr.end(id)
	return v, err
}

// spanCost measures what recording one span costs, once per process: the
// basis of the tracing-overhead estimate where no undecorated twin of a
// traced pipeline exists.
var spanCost = sync.OnceValue(func() time.Duration {
	const n = 20000
	tr := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		tr.end(tr.begin("calibrate", -1))
	}
	return time.Since(start) / n
})

// registryValue sums every series of one metric family in an obs
// registry snapshot — the same numbers /metrics exposes.
func registryValue(reg *obs.Registry, name string) float64 {
	total := 0.0
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

// layerRows collects per-layer observations across the rounds of a traced
// run; each becomes a row whose metric value is the median over rounds.
type layerRows map[string]samples

func (l layerRows) add(name string, v float64) { l[name] = append(l[name], v) }

func (l layerRows) into(res *result) {
	for name, s := range l {
		res.row(name, s)
	}
}
