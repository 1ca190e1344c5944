package engine

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dcvalidate/internal/obs"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

func testParams() topology.Params {
	return topology.Params{
		Clusters: 2, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 2, RSLinksPerSpine: 1,
		PrefixesPerToR: 1,
	}
}

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	topo, err := topology.New(testParams())
	if err != nil {
		t.Fatal(err)
	}
	return New(topo, nil)
}

// renderReport renders the semantic content of a report — device identity
// and violations, excluding timing — for byte-identity comparison.
func renderReport(rep *rcdc.Report) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "checked=%d failures=%d\n", rep.Checked, rep.Failures)
	for i := range rep.Devices {
		d := &rep.Devices[i]
		fmt.Fprintf(&buf, "dev=%d name=%s role=%s contracts=%d\n", d.Device, d.Name, d.Role, d.Contracts)
		for _, v := range d.Violations {
			fmt.Fprintf(&buf, "  %s\n", v.String())
		}
	}
	return buf.Bytes()
}

func sample(r *obs.Registry, name string, labels ...string) float64 {
	for _, s := range r.Snapshot() {
		if s.Name != name {
			continue
		}
		ok := true
		for i := 0; i+1 < len(labels); i += 2 {
			if s.Labels[labels[i]] != labels[i+1] {
				ok = false
				break
			}
		}
		if ok {
			return s.Value
		}
	}
	return 0
}

// TestApplyDeltaEquivalence: a sequence of Apply mutations revalidated
// incrementally must render byte-identically to a from-scratch engine
// over the same state.
func TestApplyDeltaEquivalence(t *testing.T) {
	e := newTestEngine(t)
	rep, err := e.Validate(Options{})
	if err != nil {
		t.Fatal(err)
	}
	steps := []Change{
		{Kind: FailLink, A: "dc-c0-t0-0", B: "dc-c0-t1-0"},
		{Kind: ShutSession, A: "dc-c1-t0-0", B: "dc-c1-t1-1"},
		{Kind: RestoreLink, A: "dc-c0-t0-0", B: "dc-c0-t1-0"},
		{Kind: RestoreSession, A: "dc-c1-t0-0", B: "dc-c1-t1-1"},
		{Kind: FailLink, A: "dc-c0-t0-1", B: "dc-c0-t1-0"},
		{Kind: RestoreAll},
	}
	for i, c := range steps {
		if err := e.Apply(c); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		rep, err = e.ValidateDelta(rep, Options{})
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		// Fresh engine over a topology in the same state.
		fresh := newTestEngine(t)
		for _, cc := range steps[:i+1] {
			if err := fresh.Apply(cc); err != nil {
				t.Fatalf("step %d replay: %v", i, err)
			}
		}
		want, err := fresh.Validate(Options{})
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !bytes.Equal(renderReport(rep), renderReport(want)) {
			t.Fatalf("step %d: delta report diverged from full validate\n--- delta ---\n%s--- full ---\n%s",
				i, renderReport(rep), renderReport(want))
		}
		if rep.Generation != e.Topo().Generation() {
			t.Fatalf("step %d: report generation %d, topology %d", i, rep.Generation, e.Topo().Generation())
		}
	}
}

func TestApplyErrors(t *testing.T) {
	e := newTestEngine(t)
	if err := e.Apply(Change{Kind: FailLink, A: "nope", B: "dc-c0-t1-0"}); err == nil ||
		!strings.Contains(err.Error(), `unknown device "nope"`) {
		t.Fatalf("want unknown-device error, got %v", err)
	}
	// Two existing devices with no link between them.
	if err := e.Apply(Change{Kind: FailLink, A: "dc-c0-t0-0", B: "dc-c1-t0-0"}); err == nil ||
		!strings.Contains(err.Error(), "no link between") {
		t.Fatalf("want no-link error, got %v", err)
	}
	if err := e.Apply(Change{Kind: RestoreSession, A: "dc-c0-t0-0", B: "dc-c1-t0-0"}); err == nil {
		t.Fatal("want no-link error for RestoreSession across clusters")
	}
}

// TestQueryDeviceCache: repeat queries at an unchanged generation are
// cache hits with no revalidation; a mutation invalidates exactly once.
func TestQueryDeviceCache(t *testing.T) {
	e := newTestEngine(t)
	reg := e.Metrics()

	a1, err := e.QueryDevice("dc-c0-t0-0")
	if err != nil {
		t.Fatal(err)
	}
	if a1.Cached {
		t.Fatal("first query reported cached")
	}
	if !a1.Conformant || a1.Contracts == 0 {
		t.Fatalf("healthy fleet: %+v", a1)
	}
	if got := sample(reg, "dcv_serve_cache_misses_total"); got != 1 {
		t.Fatalf("misses after cold query = %v, want 1", got)
	}

	for i := 0; i < 3; i++ {
		a, err := e.QueryDevice("dc-c0-t0-0")
		if err != nil {
			t.Fatal(err)
		}
		if !a.Cached {
			t.Fatalf("repeat query %d not cached", i)
		}
	}
	if got := sample(reg, "dcv_serve_cache_hits_total"); got != 3 {
		t.Fatalf("hits after 3 repeats = %v, want 3", got)
	}
	if got := sample(reg, "dcv_serve_cache_misses_total"); got != 1 {
		t.Fatalf("misses after repeats = %v, want 1", got)
	}
	// A fleet sweep ran exactly once, in single mode.
	if got := sample(reg, "dcv_serve_sweeps_total", "mode", "single"); got != 1 {
		t.Fatalf("single sweeps = %v, want 1", got)
	}

	// Mutate: next query misses, revalidates, then hits again.
	if err := e.Apply(Change{Kind: FailLink, A: "dc-c0-t0-0", B: "dc-c0-t1-0"}); err != nil {
		t.Fatal(err)
	}
	a2, err := e.QueryDevice("dc-c0-t0-0")
	if err != nil {
		t.Fatal(err)
	}
	if a2.Cached {
		t.Fatal("post-mutation query reported cached")
	}
	if a2.Conformant {
		t.Fatal("ToR with failed uplink reported conformant")
	}
	if len(a2.Violations) == 0 {
		t.Fatal("no violations on non-conformant answer")
	}
	if got := sample(reg, "dcv_serve_cache_misses_total"); got != 2 {
		t.Fatalf("misses after mutation = %v, want 2", got)
	}

	if _, err := e.QueryDevice("ghost"); err == nil {
		t.Fatal("want error for unknown device")
	}
}

// TestQueryViolationsMutationSafe: vandalizing the returned slice must
// not corrupt the engine's cached report.
func TestQueryViolationsMutationSafe(t *testing.T) {
	e := newTestEngine(t)
	if err := e.Apply(Change{Kind: FailLink, A: "dc-c0-t0-0", B: "dc-c0-t1-0"}); err != nil {
		t.Fatal(err)
	}
	vs, gen, err := e.QueryViolations()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("expected violations after link failure")
	}
	if gen != e.Topo().Generation() {
		t.Fatalf("violations generation %d, topology %d", gen, e.Topo().Generation())
	}
	a1, err := e.QueryDevice("dc-c0-t0-0")
	if err != nil {
		t.Fatal(err)
	}
	before := fmt.Sprintf("%v", a1.Violations)
	for i := range vs {
		vs[i].Device = -99
		for j := range vs[i].Missing {
			vs[i].Missing[j] = -1
		}
		for j := range vs[i].Contract.NextHops {
			vs[i].Contract.NextHops[j] = -1
		}
	}
	a2, err := e.QueryDevice("dc-c0-t0-0")
	if err != nil {
		t.Fatal(err)
	}
	if after := fmt.Sprintf("%v", a2.Violations); before != after {
		t.Fatalf("mutating QueryViolations() corrupted the cached report:\n%s\nvs\n%s", before, after)
	}
}

func TestSummary(t *testing.T) {
	e := newTestEngine(t)
	s, err := e.Summary()
	if err != nil {
		t.Fatal(err)
	}
	n := len(e.Topo().Devices)
	if s.Devices != n || s.Healthy != n || s.Violating != 0 || s.Violations != 0 {
		t.Fatalf("healthy fleet summary: %+v", s)
	}
	if err := e.Apply(Change{Kind: FailLink, A: "dc-c0-t0-0", B: "dc-c0-t1-0"}); err != nil {
		t.Fatal(err)
	}
	s2, err := e.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if s2.Violating == 0 || s2.Violations == 0 {
		t.Fatalf("post-failure summary: %+v", s2)
	}
	if s2.Cached {
		t.Fatal("post-mutation summary reported cached")
	}
	s3, err := e.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if !s3.Cached {
		t.Fatal("repeat summary not cached")
	}
}

// TestQueryReach: healthy reach, then a destination isolated by failing
// all its uplinks must yield a counterexample trajectory.
func TestQueryReach(t *testing.T) {
	e := newTestEngine(t)
	a, err := e.QueryReach("dc-c0-t0-0", "dc-c1-t0-0")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Reaches || a.Dropped || a.Counterexample != nil {
		t.Fatalf("healthy reach: %+v", a)
	}
	if a.MinHops != 4 || a.MaxHops != 4 {
		t.Fatalf("inter-cluster hops = %d..%d, want 4..4", a.MinHops, a.MaxHops)
	}
	if len(a.Prefixes) == 0 {
		t.Fatal("no prefixes resolved")
	}

	// Same query by prefix instead of device name.
	ap, err := e.QueryReach("dc-c0-t0-0", a.Prefixes[0])
	if err != nil {
		t.Fatal(err)
	}
	if !ap.Reaches {
		t.Fatalf("reach by prefix: %+v", ap)
	}

	// The synthesis state is current: the repeat query runs no refresh.
	if !ap.Cached {
		t.Fatal("repeat reach query not cached")
	}

	// Isolate the destination ToR.
	for _, leaf := range []string{"dc-c1-t1-0", "dc-c1-t1-1"} {
		if err := e.Apply(Change{Kind: FailLink, A: "dc-c1-t0-0", B: leaf}); err != nil {
			t.Fatal(err)
		}
	}
	b, err := e.QueryReach("dc-c0-t0-0", "dc-c1-t0-0")
	if err != nil {
		t.Fatal(err)
	}
	if b.Reaches {
		t.Fatal("isolated destination still reachable")
	}
	if b.Cached {
		t.Fatal("post-mutation reach reported cached")
	}
	ce := b.Counterexample
	if ce == nil {
		t.Fatal("no counterexample for unreachable destination")
	}
	if ce.Reason == "" || len(ce.Path) == 0 || ce.DropsAt != ce.Path[len(ce.Path)-1] {
		t.Fatalf("malformed counterexample: %+v", ce)
	}
	if ce.DstIP == "" {
		t.Fatal("counterexample missing destination address")
	}

	if _, err := e.QueryReach("dc-c0-t0-0", "10.99.99.0/24"); err == nil {
		t.Fatal("want error for unhosted prefix")
	}
	if _, err := e.QueryReach("ghost", "dc-c1-t0-0"); err == nil {
		t.Fatal("want error for unknown source")
	}
}

// countingClock counts its Now calls.
type countingClock struct{ calls atomic.Int64 }

func (c *countingClock) Now() time.Time {
	c.calls.Add(1)
	return time.Unix(0, 0)
}

// TestQueryReachReadsNoClockWithoutMetrics: a warm /reach reads the engine
// clock only to time itself into the serving metrics — never before
// Metrics() is called, twice (start and end) after.
func TestQueryReachReadsNoClockWithoutMetrics(t *testing.T) {
	e := newTestEngine(t)
	clk := &countingClock{}
	e.SetClock(clk)
	reach := func() {
		t.Helper()
		if ans, err := e.QueryReach("dc-c0-t0-0", "dc-c1-t0-0"); err != nil || !ans.Cached {
			t.Fatalf("warm reach: %+v, %v", ans, err)
		}
	}
	if _, err := e.QueryReach("dc-c0-t0-0", "dc-c1-t0-0"); err != nil {
		t.Fatal(err)
	}
	clk.calls.Store(0)
	reach()
	if n := clk.calls.Load(); n != 0 {
		t.Fatalf("warm reach without metrics read the clock %d times, want 0", n)
	}
	e.Metrics()
	clk.calls.Store(0)
	reach()
	if n := clk.calls.Load(); n != 2 {
		t.Fatalf("warm reach with metrics read the clock %d times, want 2", n)
	}
}

// TestReachTargets: a /reach destination resolves, by device, to the
// device's hosted prefixes as the fleet's hosted-prefix list names them,
// and by prefix to its one hosting ToR. A prefix target answers for the
// same prefix as the device target of a ToR hosting only it.
func TestReachTargets(t *testing.T) {
	p := testParams()
	p.PrefixesPerToR = 2
	topo := topology.MustNew(p)
	all := topo.HostedPrefixes()
	for _, tor := range topo.ToRs() {
		name := topo.Device(tor).Name
		got, err := reachTargets(topo, name)
		if err != nil {
			t.Fatal(err)
		}
		var want []topology.HostedPrefix
		for _, hp := range all {
			if hp.ToR == tor {
				want = append(want, hp)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: targets %v, want %v", name, got, want)
		}
	}
	for _, hp := range all {
		got, err := reachTargets(topo, hp.Prefix.String())
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, []topology.HostedPrefix{hp}) {
			t.Fatalf("%s: targets %v, want %v", hp.Prefix, got, hp)
		}
	}

	e := newTestEngine(t)
	byDevice, err := e.QueryReach("dc-c0-t0-0", "dc-c1-t0-1")
	if err != nil {
		t.Fatal(err)
	}
	byPrefix, err := e.QueryReach("dc-c0-t0-0", byDevice.Prefixes[0])
	if err != nil {
		t.Fatal(err)
	}
	byPrefix.Dst, byPrefix.Cached = byDevice.Dst, byDevice.Cached
	if got, want := fmt.Sprintf("%+v", byPrefix), fmt.Sprintf("%+v", byDevice); got != want {
		t.Fatalf("reach by prefix %s\n got %s\nwant %s (by device)", byDevice.Prefixes[0], got, want)
	}
}

// TestLintGate: engine-level lint gating mirrors the facade contract.
func TestLintGate(t *testing.T) {
	e := newTestEngine(t)
	e.EnableLintGate()
	// A clean (nil) config change passes the gate.
	if err := e.Apply(Change{Kind: SetConfig, Device: "dc-c0-t0-0", Config: nil}); err != nil {
		t.Fatal(err)
	}
	e.DisableLintGate()
	if _, err := e.Lint(); err != nil {
		t.Fatal(err)
	}
}

// TestServingCacheHeapCeiling locks what a warmed serving plane keeps live.
// Its FIB cache and contract memo hold runs, a handful per device, not a
// row and a contract per (device × prefix). A 520-device engine warmed by a
// cold query and a handful of ToR–leaf flips, each followed by a query,
// held 86 B per contract when both were expanded, and 10.8 B as runs. The
// ceiling is 1.5× that.
func TestServingCacheHeapCeiling(t *testing.T) {
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	topo := topology.MustNew(topology.Params{
		Clusters: 10, ToRsPerCluster: 40, LeavesPerCluster: 8, SpinesPerPlane: 4,
		RegionalSpines: 8, RSLinksPerSpine: 4, PrefixesPerToR: 1,
	})
	e := New(topo, nil)
	name := func(d topology.DeviceID) string { return topo.Device(d).Name }
	query := func(d topology.DeviceID) {
		t.Helper()
		if _, err := e.QueryDevice(name(d)); err != nil {
			t.Fatal(err)
		}
	}
	query(topo.ToRs()[0])
	for c := 0; c < 6; c++ {
		tor, leaf := topo.ClusterToRs(c)[c], topo.ClusterLeaves(c)[c]
		kind := FailLink
		if c%2 == 1 {
			kind = ShutSession
		}
		if err := e.Apply(Change{Kind: kind, A: name(tor), B: name(leaf)}); err != nil {
			t.Fatal(err)
		}
		query(tor)
	}
	sum, err := e.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Violations == 0 {
		t.Fatal("the flips moved no verdict; the engine is not warmed by them")
	}
	per := float64(live()-before) / float64(sum.Contracts)
	runtime.KeepAlive(e)
	t.Logf("%d devices, %d contracts: %.1f live heap bytes per contract", sum.Devices, sum.Contracts, per)
	if per > 16 {
		t.Errorf("warmed engine keeps %.1f live heap bytes per contract, ceiling 16", per)
	}
}

// TestServingPlaneTracesRevalidate: once Metrics() has been called, the
// serving plane's change-driven sweep is traced. On a 2008-device engine,
// one ToR–leaf Apply plus the QueryDevice that revalidates it records one
// rcdc.Revalidate span whose children are its window, refresh and check
// stages, in that order.
func TestServingPlaneTracesRevalidate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2008-device datacenter")
	}
	p := topology.Params{
		ToRsPerCluster: 40, LeavesPerCluster: 8, SpinesPerPlane: 4,
		RegionalSpines: 8, RSLinksPerSpine: 4, PrefixesPerToR: 1,
	}
	p.Clusters = (2008 - 40 + 47) / 48
	topo := topology.MustNew(p)
	e := New(topo, nil)
	e.Metrics()
	name := func(d topology.DeviceID) string { return topo.Device(d).Name }
	leaf := topo.ClusterLeaves(0)[0]
	if _, err := e.QueryDevice(name(leaf)); err != nil { // the cold sweep
		t.Fatal(err)
	}
	seen := len(e.tracer.Spans())
	if err := e.Apply(Change{Kind: FailLink, A: name(topo.ToRs()[0]), B: name(leaf)}); err != nil {
		t.Fatal(err)
	}
	if ans, err := e.QueryDevice(name(leaf)); err != nil || ans.Cached {
		t.Fatalf("query after the flip: %+v, %v; want a fresh verdict", ans, err)
	}
	spans := e.tracer.Spans()[seen:]
	var roots []obs.SpanData
	for _, sp := range spans {
		if sp.Name == "rcdc.Revalidate" {
			roots = append(roots, sp)
		}
	}
	if len(roots) != 1 {
		t.Fatalf("%d rcdc.Revalidate spans for one flip, want 1 (spans %v)", len(roots), spans)
	}
	var stages []string
	for _, sp := range spans {
		if sp.Parent == roots[0].ID {
			stages = append(stages, sp.Name)
		}
	}
	if got := fmt.Sprint(stages); got != "[window refresh check]" {
		t.Fatalf("stages %s, want [window refresh check]", got)
	}
}
