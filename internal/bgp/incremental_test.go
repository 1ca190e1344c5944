package bgp

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dcvalidate/internal/delta"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/topology"
)

// TestRerunMatchesRun locks the warm-restart contract: after a topology
// mutation, Rerun from the previous converged state reaches exactly the
// fixpoint a from-scratch Run computes.
func TestRerunMatchesRun(t *testing.T) {
	p := topology.Params{
		Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 1,
	}
	warmTopo := topology.MustNew(p)
	warm := NewSim(warmTopo, nil)
	warm.Run()

	mutations := []func(*topology.Topology){
		func(tp *topology.Topology) { tp.FailLink(tp.ClusterLeaves(0)[0], tp.Spines()[0]) },
		func(tp *topology.Topology) { tp.ShutSession(tp.ToRs()[0], tp.ClusterLeaves(0)[0]) },
		func(tp *topology.Topology) { tp.FailLink(tp.Spines()[1], tp.RegionalSpines()[0]) },
		func(tp *topology.Topology) { tp.RestoreAll() },
	}
	coldTopo := topology.MustNew(p)
	for i, mutate := range mutations {
		mutate(warmTopo)
		mutate(coldTopo)
		warm.Rerun()
		cold := NewSim(coldTopo, nil)
		cold.Run()
		for id := range warmTopo.Devices {
			d := topology.DeviceID(id)
			wt, err := warm.Table(d)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := cold.Table(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := tablesEqual(wt, ct); err != nil {
				t.Fatalf("mutation %d: device %s: rerun table diverges from fresh run: %v",
					i, warmTopo.Device(d).Name, err)
			}
		}
	}
}

// TestRerunBeforeRunIsRun ensures Rerun on a virgin simulation behaves as
// a plain Run.
func TestRerunBeforeRunIsRun(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	s := NewSim(topo, nil)
	if rounds := s.Rerun(); rounds <= 0 {
		t.Fatalf("Rerun on virgin sim returned %d rounds", rounds)
	}
	if _, err := s.Table(topo.ToRs()[0]); err != nil {
		t.Fatalf("table after virgin Rerun: %v", err)
	}
}

// TestSynthTableCache locks the generation-keyed cache: hits return
// equal tables, topology changes evict exactly the dirty devices, and the
// cached copies survive caller mutation.
func TestSynthTableCache(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 1,
	})
	cached := NewSynth(topo, nil)
	cached.EnableTableCache()

	verify := func(label string) {
		t.Helper()
		fresh := NewSynth(topo, nil)
		for id := range topo.Devices {
			d := topology.DeviceID(id)
			ct, err := cached.Table(d)
			if err != nil {
				t.Fatal(err)
			}
			ft, err := fresh.Table(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := tablesEqual(ct, ft); err != nil {
				t.Fatalf("%s: device %s: cached table diverges: %v", label, topo.Device(d).Name, err)
			}
		}
	}
	verify("warm-up")

	// Mutating a returned table must not poison the cache.
	tor := topo.ToRs()[0]
	tbl, err := cached.Table(tor)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Entries) > 0 {
		tbl.Entries[0].NextHops = nil
		tbl.Entries = tbl.Entries[:0]
	}
	verify("after caller mutation")

	// A link failure evicts the dirty devices; the next Refresh+Table pass
	// must match a fresh synthesis of the degraded state.
	topo.FailLink(topo.ClusterLeaves(0)[0], topo.Spines()[0])
	cached.Refresh()
	verify("after link failure")

	topo.RestoreAll()
	cached.Refresh()
	verify("after restore")

	// A ChangeDevice journal entry clears the whole cache (conservative).
	topo.NoteDeviceChanged(tor)
	cached.Refresh()
	verify("after device change")
}

// TestSynthCachePatchMatchesFresh drives the row-patching half of the
// table cache: over random windows of link and session flips on degrading
// fleets, with and without ECMP truncation, refreshed by Refresh or — as
// rcdc.Revalidate does — by RefreshDelta with the window's blast radius,
// every cached table equals a fresh synthesis entry for entry and in order
// (rows that appeared or vanished included) and run for run, Rows returns
// exactly the overlapping rows plus the default, and neither tables nor
// the cache's own runs handed out before the refresh are written through.
// A last window of more than the journal holds must evict everything and
// derive the state afresh.
func TestSynthCachePatchMatchesFresh(t *testing.T) {
	p := topology.Params{
		Clusters: 3, ToRsPerCluster: 3, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 2,
	}
	for leg := 0; leg < 4; leg++ {
		truncate, viaDelta := leg%2 == 1, leg >= 2
		topo := topology.MustNew(p)
		var cfg map[topology.DeviceID]*DeviceConfig
		if truncate {
			cfg = map[topology.DeviceID]*DeviceConfig{
				topo.ToRs()[1]:   {MaxECMPPaths: 1},
				topo.Leaves()[0]: {MaxECMPPaths: 1},
			}
		}
		reg := obs.NewRegistry()
		cached := NewSynth(topo, cfg)
		cached.EnableTableCache()
		cached.Metrics = NewMetrics(reg)
		render := func(es []fib.Entry) string { return fmt.Sprint(es) }
		pullAll := func() []*fib.Table {
			out := make([]*fib.Table, len(topo.Devices))
			for id := range topo.Devices {
				tbl, err := cached.Table(topology.DeviceID(id))
				if err != nil {
					t.Fatal(err)
				}
				out[id] = tbl
			}
			return out
		}
		// The cache's own runs, shared with every caller that reads them.
		pullRuns := func() []fib.RunTable {
			out := make([]fib.RunTable, len(topo.Devices))
			for id := range topo.Devices {
				out[id] = cached.runTable(topology.DeviceID(id))
			}
			return out
		}
		held, heldRuns := pullAll(), pullRuns()
		rng := rand.New(rand.NewSource(7))
		since := topo.Generation()
		refresh := func() {
			if viaDelta {
				refreshFromJournal(cached, since)
			} else {
				cached.Refresh()
			}
			since = topo.Generation()
		}
		for trial := 0; trial <= 60; trial++ {
			heldBefore := make([]string, len(held))
			heldRunsBefore := make([]string, len(held))
			for id := range held {
				heldBefore[id] = render(held[id].Entries)
				heldRunsBefore[id] = fmt.Sprint(heldRuns[id])
			}
			n := 1 + rng.Intn(3)
			if trial == 60 { // past the journal: the cache cannot tell what moved
				lid := topology.LinkID(rng.Intn(len(topo.Links)))
				for i := 0; i < 4200; i++ {
					topo.SetLinkUp(lid, !topo.Link(lid).Up)
				}
			}
			for i := 0; i < n; i++ {
				lid := topology.LinkID(rng.Intn(len(topo.Links)))
				if rng.Intn(2) == 0 {
					topo.SetLinkUp(lid, rng.Intn(2) == 0)
				} else {
					topo.SetSessionUp(lid, rng.Intn(2) == 0)
				}
			}
			evictedBefore := metricValue(reg, "dcv_bgp_synth_tables_evicted_total")
			refresh()
			if err := stateMatchesFresh(cached); err != nil {
				t.Fatalf("leg %d trial %d: %v", leg, trial, err)
			}
			if evicted := metricValue(reg, "dcv_bgp_synth_tables_evicted_total") - evictedBefore; trial == 60 && int(evicted) != len(topo.Devices) {
				t.Fatalf("leg %d: a truncated journal evicted %v of %d tables", leg, evicted, len(topo.Devices))
			}
			for id := range held {
				if got := render(held[id].Entries); got != heldBefore[id] {
					t.Fatalf("trial %d: refresh wrote through a table handed out earlier (device %d)", trial, id)
				}
				if got := fmt.Sprint(heldRuns[id]); got != heldRunsBefore[id] {
					t.Fatalf("trial %d: refresh wrote through runs handed out earlier (device %d)\n got %s\nwant %s",
						trial, id, got, heldRunsBefore[id])
				}
			}
			fresh := NewSynth(topo, cfg)
			held, heldRuns = pullAll(), pullRuns()
			for id := range topo.Devices {
				d := topology.DeviceID(id)
				want, _ := fresh.Table(d)
				if got, want := render(held[id].Entries), render(want.Entries); got != want {
					t.Fatalf("trial %d: device %s: cached table diverges from fresh synthesis\n got %s\nwant %s",
						trial, topo.Device(d).Name, got, want)
				}
				if got, want := fmt.Sprint(allRuns(cached, d)), fmt.Sprint(allRuns(fresh, d)); got != want {
					t.Fatalf("trial %d: device %s: patched runs diverge from fresh synthesis\n got %s\nwant %s",
						trial, topo.Device(d).Name, got, want)
				}
				probe := []ipnet.Prefix{topo.HostedPrefixes()[rng.Intn(len(topo.HostedPrefixes()))].Prefix}
				var wantRows []fib.Entry
				for _, e := range want.Entries {
					if e.Prefix.IsDefault() || e.Prefix.Overlaps(probe[0]) {
						wantRows = append(wantRows, e)
					}
				}
				rows, err := cached.Rows(d, probe)
				if err != nil {
					t.Fatal(err)
				}
				if render(rows) != render(wantRows) {
					t.Fatalf("trial %d: device %s: Rows(%v) = %s, want %s", trial, topo.Device(d).Name, probe, render(rows), render(wantRows))
				}
			}
		}
		patched := metricValue(reg, "dcv_bgp_synth_rows_patched_total")
		evicted := metricValue(reg, "dcv_bgp_synth_tables_evicted_total")
		if patched == 0 || evicted == 0 {
			t.Fatalf("truncate=%v viaDelta=%v: %v rows patched, %v tables evicted — want both paths exercised", truncate, viaDelta, patched, evicted)
		}
	}
}

func metricValue(reg *obs.Registry, name string) float64 {
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

// TestPendingPatchConcurrentPulls is the race gate for patches left pending
// by RefreshDelta: after one refresh over a ToR–leaf flip and a leaf–spine
// flip, goroutines pull the same devices at once — each device several
// times, the fleet in parallel — and every pull, whichever applied the
// patch, must equal a fresh synthesis. Small enough to run under -race
// -short.
func TestPendingPatchConcurrentPulls(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 2,
	})
	cached := NewSynth(topo, nil)
	cached.EnableTableCache()
	for trial := 0; trial < 4; trial++ {
		for id := range topo.Devices { // warm: every device cached
			allRuns(cached, topology.DeviceID(id))
		}
		tor, leaf := topo.ClusterToRs(trial % 3)[trial], topo.ClusterLeaves(trial % 3)[trial%2]
		since := topo.Generation()
		if trial%2 == 0 {
			topo.FailLink(tor, leaf)
			topo.FailLink(topo.ClusterLeaves(1)[0], topo.Spines()[0])
		} else {
			topo.RestoreAll()
		}
		changes, ok := topo.ChangesSince(since)
		if !ok {
			t.Fatal("journal truncated")
		}
		cached.RefreshDelta(delta.Compute(topo, changes, delta.Options{}), since)
		fresh := NewSynth(topo, nil)
		want := make([]string, len(topo.Devices))
		for id := range topo.Devices {
			want[id] = fmt.Sprint(allRuns(fresh, topology.DeviceID(id)))
		}
		const pullers = 4
		errs := make(chan error, pullers)
		for w := 0; w < pullers; w++ {
			go func(w int) {
				for k := range topo.Devices {
					id := (k + w*len(topo.Devices)/pullers) % len(topo.Devices)
					for rep := 0; rep < 2; rep++ {
						if got := fmt.Sprint(allRuns(cached, topology.DeviceID(id))); got != want[id] {
							errs <- fmt.Errorf("trial %d: puller %d: device %s: got %s, want %s", trial, w, topo.Devices[id].Name, got, want[id])
							return
						}
					}
				}
				errs <- nil
			}(w)
		}
		for w := 0; w < pullers; w++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPendingPatchesAccumulate: refreshes with no pull in between leave a
// patch pending on a device and then evict it — a second patch is never
// stacked on an unapplied one — and whichever the last refresh left, the
// pull that finally comes must equal a fresh synthesis.
func TestPendingPatchesAccumulate(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 2,
	})
	cached := NewSynth(topo, nil)
	cached.EnableTableCache()
	reg := obs.NewRegistry()
	cached.Metrics = NewMetrics(reg)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		for id := range topo.Devices {
			allRuns(cached, topology.DeviceID(id))
		}
		for refresh := 0; refresh < 1+rng.Intn(4); refresh++ {
			lid := topology.LinkID(rng.Intn(len(topo.Links)))
			if rng.Intn(2) == 0 {
				topo.SetLinkUp(lid, rng.Intn(2) == 0)
			} else {
				topo.SetSessionUp(lid, rng.Intn(2) == 0)
			}
			cached.Refresh()
		}
		fresh := NewSynth(topo, nil)
		for id := range topo.Devices {
			d := topology.DeviceID(id)
			if got, want := fmt.Sprint(allRuns(cached, d)), fmt.Sprint(allRuns(fresh, d)); got != want {
				t.Fatalf("trial %d: device %s: runs after pending patches diverge from fresh synthesis\n got %s\nwant %s",
					trial, topo.Device(d).Name, got, want)
			}
		}
	}
	if metricValue(reg, "dcv_bgp_synth_rows_patched_total") == 0 {
		t.Fatal("no row was patched: the trials exercised nothing")
	}
}

// TestPendingPatchesBounded: a scoped check pulls one device per class and
// leaves the other devices' patches pending, so 300 ToR–leaf flips, each
// on a ToR not flipped before, come with no pull of the whole fleet. An
// unpulled slot must stay bounded — never more than one pending patch, a
// ToR's prefixes — and so must the refresh: the mallocs of a flip, its blast
// radius and the refresh over the last 100 flips within 1.25× those over
// the first 100. The full pull
// that follows must equal a fresh synthesis.
func TestPendingPatchesBounded(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 10, ToRsPerCluster: 32, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 2, RSLinksPerSpine: 2,
		PrefixesPerToR: 1,
	})
	cached := NewSynth(topo, nil)
	cached.EnableTableCache()
	reg := obs.NewRegistry()
	cached.Metrics = NewMetrics(reg)
	for id := range topo.Devices {
		allRuns(cached, topology.DeviceID(id))
	}
	tors := topo.ToRs()
	const flips = 300
	// pullAsChecked pulls what a one-worker scoped check pulls: every dirty
	// device RunClass does not cover for its scope's stretch, and the first
	// of each class.
	pullAsChecked := func(ds *delta.Set) {
		var seen []fib.RunClass
		for _, d := range ds.Devices() {
			sc, _ := ds.Scope(d)
			if !sc.Whole && !sc.Rows[0].IsDefault() {
				sp := cached.spans(sc.Rows)
				if c, ok := cached.RunClass(d, sp[0][0], sp[len(sp)-1][1]); ok {
					if slices.Contains(seen, c) {
						continue
					}
					seen = append(seen, c)
				}
			}
			allRuns(cached, d)
		}
	}
	var ms runtime.MemStats
	mallocs := func() uint64 { runtime.ReadMemStats(&ms); return ms.Mallocs }
	var first, last uint64
	for k := 0; k < flips; k++ {
		if k == 0 || k == flips-100 {
			runtime.GC()
		}
		before := mallocs()
		since := topo.Generation()
		tor := tors[k]
		topo.FailLink(tor, topo.ClusterLeaves(topo.Device(tor).Cluster)[k%2])
		ds := delta.Since(topo, since, delta.Options{})
		cached.RefreshDelta(ds, since)
		switch spent := mallocs() - before; {
		case k < 100:
			first += spent
		case k >= flips-100:
			last += spent
		}
		pullAsChecked(ds)
		for d := range cached.cache {
			if sl := &cached.cache[d]; sl.def || len(sl.spans) > 1 {
				t.Fatalf("flip %d: device %s holds a pending patch of %d stretches (default row: %v), want at most one ToR's",
					k, topo.Devices[d].Name, len(sl.spans), sl.def)
			}
		}
	}
	t.Logf("mallocs per flip and refresh: %.1f over the first 100 flips, %.1f over the last 100", float64(first)/100, float64(last)/100)
	if float64(last) > 1.25*float64(first) {
		t.Errorf("mallocs per flip and refresh grew from %d over the first 100 flips to %d over the last 100: unpulled slots are not bounded", first, last)
	}
	if metricValue(reg, "dcv_bgp_synth_tables_evicted_total") == 0 {
		t.Fatal("no pending patch was evicted: the flips exercised nothing")
	}
	fresh := NewSynth(topo, nil)
	for id := range topo.Devices {
		d := topology.DeviceID(id)
		if got, want := fmt.Sprint(allRuns(cached, d)), fmt.Sprint(allRuns(fresh, d)); got != want {
			t.Fatalf("device %s: runs after 300 flips diverge from fresh synthesis\n got %s\nwant %s", topo.Device(d).Name, got, want)
		}
	}
}
