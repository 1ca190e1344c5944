package rcdc

import (
	"errors"
	"math/rand"
	"testing"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/topology"
)

// reportsEquivalent compares two reports ignoring timing fields.
func reportsEquivalent(t *testing.T, got, want *Report) {
	t.Helper()
	if got.Checked != want.Checked || got.Failures != want.Failures {
		t.Fatalf("totals differ: checked %d/%d failures %d/%d",
			got.Checked, want.Checked, got.Failures, want.Failures)
	}
	if len(got.Devices) != len(want.Devices) {
		t.Fatalf("device counts differ: %d vs %d", len(got.Devices), len(want.Devices))
	}
	for i := range got.Devices {
		g, w := got.Devices[i], want.Devices[i]
		if g.Device != w.Device || g.Name != w.Name || g.Role != w.Role ||
			g.Contracts != w.Contracts || len(g.Violations) != len(w.Violations) {
			t.Fatalf("device %d differs:\n got %+v\nwant %+v", i, g, w)
		}
		for j := range g.Violations {
			gv, wv := g.Violations[j], w.Violations[j]
			if gv.String() != wv.String() || gv.Remaining != wv.Remaining || gv.RulePrefix != wv.RulePrefix {
				t.Fatalf("device %d violation %d differs: %s (remaining %d, rule %s) vs %s (remaining %d, rule %s)",
					i, j, gv, gv.Remaining, gv.RulePrefix, wv, wv.Remaining, wv.RulePrefix)
			}
		}
	}
}

func TestValidateAllReturnsPartialReportOnError(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	facts := metadata.FromTopology(topo)
	bad := topo.ToRs()[1]
	src := failingSource{inner: bgp.NewSynth(topo, nil), bad: bad}
	v := Validator{Workers: 4}
	rep, err := v.ValidateAll(facts, src)
	if err == nil || !errors.Is(err, errPull) {
		t.Fatalf("err = %v, want wrapped errPull", err)
	}
	if rep == nil {
		t.Fatal("partial report must be returned alongside the error")
	}
	if got, want := len(rep.Devices), len(topo.Devices)-1; got != want {
		t.Fatalf("partial report covers %d devices, want %d", got, want)
	}
	for _, dr := range rep.Devices {
		if dr.Device == bad {
			t.Fatal("failed device must not appear in the partial report")
		}
	}
}

func TestValidateDeltaMatchesFullSweep(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 1,
	})
	facts := metadata.FromTopology(topo)
	v := Validator{Workers: 2}
	prev, err := v.ValidateAll(facts, bgp.NewSynth(topo, nil))
	if err != nil {
		t.Fatal(err)
	}

	gen := topo.Generation()
	topo.FailLink(topo.ClusterLeaves(0)[0], topo.Spines()[0])
	changes, ok := topo.ChangesSince(gen)
	if !ok {
		t.Fatal("journal truncated")
	}
	ds := delta.Compute(topo, changes, delta.Options{})
	if ds.Full() {
		t.Fatal("expected a bounded blast radius")
	}

	src := bgp.NewSynth(topo, nil)
	got, err := v.ValidateDelta(prev, facts, nil, src, ds.Devices())
	if err != nil {
		t.Fatal(err)
	}
	want, err := v.ValidateAll(facts, bgp.NewSynth(topo, nil))
	if err != nil {
		t.Fatal(err)
	}
	reportsEquivalent(t, got, want)
}

// TestValidateDeltaSortsUnorderedPrev: a previous report whose devices are
// not ascending is spliced as if it were — no device twice, none lost.
func TestValidateDeltaSortsUnorderedPrev(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	facts := metadata.FromTopology(topo)
	v := Validator{Workers: 2}
	prev, err := v.ValidateAll(facts, bgp.NewSynth(topo, nil))
	if err != nil {
		t.Fatal(err)
	}
	shuffled := *prev
	shuffled.Devices = append([]DeviceReport(nil), prev.Devices...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled.Devices), func(i, j int) {
		shuffled.Devices[i], shuffled.Devices[j] = shuffled.Devices[j], shuffled.Devices[i]
	})
	order := append([]DeviceReport(nil), shuffled.Devices...)

	tor, leaf := topo.ToRs()[0], topo.ClusterLeaves(0)[0]
	topo.FailLink(tor, leaf)
	dirty := []topology.DeviceID{tor, leaf, topo.ToRs()[1]}
	got, err := v.ValidateDelta(&shuffled, facts, nil, bgp.NewSynth(topo, nil), dirty)
	if err != nil {
		t.Fatal(err)
	}
	want, err := v.ValidateDelta(prev, facts, nil, bgp.NewSynth(topo, nil), dirty)
	if err != nil {
		t.Fatal(err)
	}
	reportsEquivalent(t, got, want)
	if want.Failures == 0 {
		t.Fatal("the failed link should show as violations")
	}
	for i := range order {
		if shuffled.Devices[i].Device != order[i].Device {
			t.Fatal("prev was reordered in place")
		}
	}
}

func TestValidateDeltaRequiresPrev(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	facts := metadata.FromTopology(topo)
	v := Validator{Workers: 1}
	if _, err := v.ValidateDelta(nil, facts, nil, bgp.NewSynth(topo, nil), nil); err == nil {
		t.Fatal("nil prev must error")
	}
}

func TestValidateDeltaKeepsPrevResultOnError(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	facts := metadata.FromTopology(topo)
	v := Validator{Workers: 2}
	prev, err := v.ValidateAll(facts, bgp.NewSynth(topo, nil))
	if err != nil {
		t.Fatal(err)
	}
	bad := topo.ToRs()[0]
	src := failingSource{inner: bgp.NewSynth(topo, nil), bad: bad}
	gen := contracts.NewGenerator(facts)
	rep, err := v.ValidateDelta(prev, facts, gen, src, []topology.DeviceID{bad})
	if err == nil || !errors.Is(err, errPull) {
		t.Fatalf("err = %v, want wrapped errPull", err)
	}
	if len(rep.Devices) != len(prev.Devices) {
		t.Fatalf("report covers %d devices, want %d", len(rep.Devices), len(prev.Devices))
	}
	found := false
	for _, dr := range rep.Devices {
		if dr.Device == bad {
			found = true
		}
	}
	if !found {
		t.Fatal("failed dirty device must keep its previous result")
	}
}

// plainSource hides a source's row queries: ValidateScoped must fall back
// to whole devices.
type plainSource struct{ inner fib.Source }

func (p plainSource) Table(d topology.DeviceID) (*fib.Table, error) { return p.inner.Table(d) }

// TestValidateScopedMatchesFullSweep drives the contract-level splice over
// random windows of link and session flips on a degrading fleet — so most
// splices land in reports that already hold violations — through every
// kind of source: the table-cached synth (patched rows), an uncached one,
// one that cannot answer row queries (whole-device fallback), and a synth
// over an address plan that is not ascending (every scope whole: eviction
// in place of patching, whole devices re-checked). Every step must match a
// from-scratch sweep.
func TestValidateScopedMatchesFullSweep(t *testing.T) {
	params := topology.Params{
		Clusters: 3, ToRsPerCluster: 3, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 2,
	}
	cases := []struct {
		name      string
		unordered bool
		source    func(*bgp.Synth) fib.Source
		rows      bool // devices are re-checked by row: a flat address plan, and a source that answers row queries
		patches   bool // cached rows get patched in place: a flat address plan, and a cache
	}{
		{name: "cached synth", rows: true, patches: true, source: func(s *bgp.Synth) fib.Source { s.EnableTableCache(); return s }},
		{name: "uncached synth", rows: true, source: func(s *bgp.Synth) fib.Source { return s }},
		{name: "no row queries", patches: true, source: func(s *bgp.Synth) fib.Source { s.EnableTableCache(); return plainSource{s} }},
		{name: "unordered address plan", unordered: true, source: func(s *bgp.Synth) fib.Source { s.EnableTableCache(); return s }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			topo := topology.MustNew(params)
			if tc.unordered {
				a, b := topo.Device(topo.ToRs()[0]), topo.Device(topo.ToRs()[4])
				a.HostedPrefixes, b.HostedPrefixes = b.HostedPrefixes, a.HostedPrefixes
			}
			facts := metadata.FromTopology(topo)
			gen := contracts.NewGenerator(facts)
			gen.EnableMemo()
			reg := obs.NewRegistry()
			v := Validator{Workers: 2, Metrics: NewMetrics(reg)}
			synth := bgp.NewSynth(topo, nil)
			synth.Metrics = bgp.NewMetrics(reg)
			src := tc.source(synth)
			prev, err := v.ValidateAll(facts, src)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			splicedIntoViolations := 0
			for step := 0; step < 40; step++ {
				since := topo.Generation()
				for i, n := 0, 1+rng.Intn(3); i < n; i++ {
					lid := topology.LinkID(rng.Intn(len(topo.Links)))
					if rng.Intn(2) == 0 {
						topo.SetLinkUp(lid, rng.Intn(3) > 0)
					} else {
						topo.SetSessionUp(lid, rng.Intn(3) > 0)
					}
				}
				changes, ok := topo.ChangesSince(since)
				if !ok {
					t.Fatal("journal truncated")
				}
				ds := delta.Compute(topo, changes, delta.Options{})
				synth.RefreshDelta(ds, since)
				if prev.Failures > 0 && ds.Count() > 0 {
					splicedIntoViolations++
				}
				got, err := v.ValidateScoped(prev, facts, gen, src, ds)
				if err != nil {
					t.Fatal(err)
				}
				want, err := (&Validator{Workers: 2}).ValidateAll(facts, bgp.NewSynth(topo, nil))
				if err != nil {
					t.Fatal(err)
				}
				reportsEquivalent(t, got, want)
				prev = got
			}
			if splicedIntoViolations < 10 {
				t.Fatalf("only %d splices into violating reports", splicedIntoViolations)
			}
			// Row queries must show as fewer contracts re-checked than the
			// whole-device fallback needs; without them, as exactly that.
			series := func(name string) float64 {
				for _, s := range reg.Snapshot() {
					if s.Name == name {
						return s.Value
					}
				}
				return 0
			}
			perDevice := series("dcv_rcdc_delta_contracts_checked_sum") / series("dcv_rcdc_delta_dirty_devices_sum")
			if full := float64(len(topo.HostedPrefixes())); tc.rows == (perDevice > full/2) {
				t.Fatalf("%.1f contracts re-checked per dirty device (a whole device has ~%.0f); row queries available: %v",
					perDevice, full, tc.rows)
			}
			if patched := series("dcv_bgp_synth_rows_patched_total"); tc.patches != (patched > 0) {
				t.Fatalf("%v cached rows patched, want patching: %v", patched, tc.patches)
			}
		})
	}
}

// TestRevalidate walks the planner's three outcomes over one cached source:
// no previous report (full sweep, no radius), a journaled link failure
// (bounded radius, spliced) and a journal truncated past the previous
// report (full radius, full sweep) — each stamped with the generation it
// reflects and equal to a from-scratch sweep.
func TestRevalidate(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 1,
	})
	facts := metadata.FromTopology(topo)
	src := bgp.NewSynth(topo, nil)
	src.EnableTableCache()
	v := Validator{Workers: 2}
	step := func(prev *Report) (*Report, *delta.Set) {
		t.Helper()
		rep, ds, err := v.Revalidate(prev, topo, facts, nil, src, delta.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Generation != topo.Generation() {
			t.Fatalf("report stamped %d, topology at %d", rep.Generation, topo.Generation())
		}
		want, err := v.ValidateAll(facts, bgp.NewSynth(topo, nil))
		if err != nil {
			t.Fatal(err)
		}
		reportsEquivalent(t, rep, want)
		return rep, ds
	}

	rep, ds := step(nil)
	if ds != nil {
		t.Fatalf("no previous report, yet a blast radius of %d devices", ds.Count())
	}
	tor, leaf := topo.ClusterToRs(0)[0], topo.ClusterLeaves(0)[0]
	topo.FailLink(tor, leaf)
	rep, ds = step(rep)
	if ds.Full() || !ds.Contains(tor) || rep.Failures == 0 {
		t.Fatalf("link failure: full=%v contains(tor)=%v failures=%d", ds.Full(), ds.Contains(tor), rep.Failures)
	}
	for _, ok := topo.ChangesSince(rep.Generation); ok; _, ok = topo.ChangesSince(rep.Generation) {
		topo.RestoreLink(tor, leaf)
		topo.FailLink(tor, leaf)
	}
	topo.RestoreLink(tor, leaf)
	if rep, ds = step(rep); !ds.Full() || rep.Failures != 0 {
		t.Fatalf("truncated journal: full=%v failures=%d", ds.Full(), rep.Failures)
	}
}
