package bgp

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"dcvalidate/internal/fib"
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

// TestSynthTableCache locks the tables a synth hands out against fresh
// synthesis through one fixed sequence, refreshed by Refresh and by
// RefreshDelta: a caller that edits and truncates a table it was handed
// must not change what the next pull returns, and after a link failure, a
// restore and a device-level change (which the journal cannot bound)
// every table and every device's runs equal a fresh synthesis.
func TestSynthTableCache(t *testing.T) {
	for _, viaJournal := range []bool{false, true} {
		topo := topology.MustNew(topology.Params{
			Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
			SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
			PrefixesPerToR: 1,
		})
		synth := NewSynth(topo, nil)
		refresh := func() {
			if viaJournal {
				synth.RefreshDelta()
			} else {
				synth.Refresh()
			}
		}
		verify := func(label string) {
			t.Helper()
			if err := stateMatchesFresh(synth); err != nil {
				t.Fatalf("journal=%v %s: %v", viaJournal, label, err)
			}
			fresh := NewSynth(topo, nil)
			for id := range topo.Devices {
				d := topology.DeviceID(id)
				st, err := synth.Table(d)
				if err != nil {
					t.Fatal(err)
				}
				ft, err := fresh.Table(d)
				if err != nil {
					t.Fatal(err)
				}
				if err := tablesEqual(st, ft); err != nil {
					t.Fatalf("journal=%v %s: device %s: table diverges from fresh synthesis: %v",
						viaJournal, label, topo.Device(d).Name, err)
				}
				if got, want := fmt.Sprint(allRuns(synth, d)), fmt.Sprint(allRuns(fresh, d)); got != want {
					t.Fatalf("journal=%v %s: device %s: runs diverge from fresh synthesis\n got %s\nwant %s",
						viaJournal, label, topo.Device(d).Name, got, want)
				}
			}
		}
		verify("warm-up")

		tor := topo.ToRs()[0]
		tbl, err := synth.Table(tor)
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Entries) == 0 {
			t.Fatal("a ToR's table is empty")
		}
		tbl.Entries[0].NextHops = nil
		tbl.Entries = tbl.Entries[:0]
		verify("after caller mutation")

		topo.FailLink(topo.ClusterLeaves(0)[0], topo.Spines()[0])
		refresh()
		verify("after link failure")

		topo.RestoreAll()
		refresh()
		verify("after restore")

		topo.NoteDeviceChanged(tor)
		refresh()
		verify("after device change")
	}
}

// TestSynthCachePatchMatchesFresh drives the maintained synthesis state
// over random windows of link and session flips on degrading fleets, with
// and without ECMP truncation, refreshed by Refresh or — as
// rcdc.Revalidate does — by RefreshDelta from the journal: every table
// then equals a fresh synthesis entry for entry and in order (rows that
// appeared or vanished included) and run for run, and neither the tables
// nor the runs handed out before the refresh — one of them edited by its caller — are
// written through or read back. A window of more than the journal holds
// must derive the state afresh.
func TestSynthCachePatchMatchesFresh(t *testing.T) {
	p := topology.Params{
		Clusters: 3, ToRsPerCluster: 3, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 2,
	}
	for leg := 0; leg < 4; leg++ {
		truncate, viaJournal := leg%2 == 1, leg >= 2
		topo := topology.MustNew(p)
		var cfg map[topology.DeviceID]*DeviceConfig
		if truncate {
			cfg = map[topology.DeviceID]*DeviceConfig{
				topo.ToRs()[1]:   {MaxECMPPaths: 1},
				topo.Leaves()[0]: {MaxECMPPaths: 1},
			}
		}
		synth := NewSynth(topo, cfg)
		render := func(es []fib.Entry) string { return fmt.Sprint(es) }
		pullAll := func() ([]*fib.Table, []fib.RunTable) {
			tables := make([]*fib.Table, len(topo.Devices))
			runs := make([]fib.RunTable, len(topo.Devices))
			for id := range topo.Devices {
				tbl, err := synth.Table(topology.DeviceID(id))
				if err != nil {
					t.Fatal(err)
				}
				tables[id], runs[id] = tbl, allRuns(synth, topology.DeviceID(id))
			}
			return tables, runs
		}
		held, heldRuns := pullAll()
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial <= 60; trial++ {
			if tor := topo.ToRs()[trial%len(topo.ToRs())]; len(held[tor].Entries) > 0 {
				held[tor].Entries[0].NextHops = nil // a caller edits its own table
			}
			heldBefore := make([]string, len(held))
			heldRunsBefore := make([]string, len(held))
			for id := range held {
				heldBefore[id] = render(held[id].Entries)
				heldRunsBefore[id] = fmt.Sprint(heldRuns[id])
			}
			if trial == 60 { // past the journal: the state cannot tell what moved
				lid := topology.LinkID(rng.Intn(len(topo.Links)))
				for i := 0; i < 8300; i++ {
					topo.SetLinkUp(lid, !topo.Link(lid).Up)
				}
				if _, ok := topo.ChangesSince(synth.Generation()); ok {
					t.Fatal("8300 flips left the journal reaching back to the last refresh")
				}
			}
			for i, n := 0, 1+rng.Intn(3); i < n; i++ {
				lid := topology.LinkID(rng.Intn(len(topo.Links)))
				if rng.Intn(2) == 0 {
					topo.SetLinkUp(lid, rng.Intn(2) == 0)
				} else {
					topo.SetSessionUp(lid, rng.Intn(2) == 0)
				}
			}
			if viaJournal {
				synth.RefreshDelta()
			} else {
				synth.Refresh()
			}
			if err := stateMatchesFresh(synth); err != nil {
				t.Fatalf("leg %d trial %d: %v", leg, trial, err)
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
			held, heldRuns = pullAll()
			for id := range topo.Devices {
				d := topology.DeviceID(id)
				want, _ := fresh.Table(d)
				if got, want := render(held[id].Entries), render(want.Entries); got != want {
					t.Fatalf("trial %d: device %s: table diverges from fresh synthesis\n got %s\nwant %s",
						trial, topo.Device(d).Name, got, want)
				}
				if got, want := fmt.Sprint(heldRuns[id]), fmt.Sprint(allRuns(fresh, d)); got != want {
					t.Fatalf("trial %d: device %s: runs diverge from fresh synthesis\n got %s\nwant %s",
						trial, topo.Device(d).Name, got, want)
				}
			}
		}
	}
}

// TestPendingPatchesAccumulate: several refreshes with no pull in between —
// one to four flips, each refreshed by Refresh or RefreshDelta at random —
// must leave the state the last of them reached, so the pull that finally
// comes equals a fresh synthesis, table for table and run for run. The
// trials must move some device's runs, or they exercised nothing.
func TestPendingPatchesAccumulate(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 2,
	})
	synth := NewSynth(topo, nil)
	rng := rand.New(rand.NewSource(11))
	prev := make([]string, len(topo.Devices))
	for id := range topo.Devices {
		prev[id] = fmt.Sprint(allRuns(synth, topology.DeviceID(id)))
	}
	moved := 0
	for trial := 0; trial < 40; trial++ {
		for refresh, n := 0, 1+rng.Intn(4); refresh < n; refresh++ {
			lid := topology.LinkID(rng.Intn(len(topo.Links)))
			if rng.Intn(2) == 0 {
				topo.SetLinkUp(lid, rng.Intn(2) == 0)
			} else {
				topo.SetSessionUp(lid, rng.Intn(2) == 0)
			}
			if rng.Intn(2) == 0 {
				synth.RefreshDelta()
			} else {
				synth.Refresh()
			}
		}
		fresh := NewSynth(topo, nil)
		for id := range topo.Devices {
			d := topology.DeviceID(id)
			got, want := fmt.Sprint(allRuns(synth, d)), fmt.Sprint(allRuns(fresh, d))
			if got != want {
				t.Fatalf("trial %d: device %s: runs after several refreshes diverge from fresh synthesis\n got %s\nwant %s",
					trial, topo.Device(d).Name, got, want)
			}
			st, err := synth.Table(d)
			if err != nil {
				t.Fatal(err)
			}
			ft, _ := fresh.Table(d)
			if err := tablesEqual(st, ft); err != nil {
				t.Fatalf("trial %d: device %s: table after several refreshes diverges from fresh synthesis: %v",
					trial, topo.Device(d).Name, err)
			}
			if got != prev[id] {
				moved++
			}
			prev[id] = got
		}
	}
	if moved == 0 {
		t.Fatal("no device's runs moved: the trials exercised nothing")
	}
}

// TestConcurrentPullsMatchFresh is the race gate for pulls after a
// refresh: after RefreshDelta over a ToR–leaf flip and a leaf–spine flip,
// goroutines pull the same devices at once — each device several times,
// the fleet in parallel, through the synth's shared scratch pool — and
// every pull must equal a fresh synthesis. Small enough to run under -race
// -short.
func TestConcurrentPullsMatchFresh(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 2,
	})
	synth := NewSynth(topo, nil)
	for trial := 0; trial < 4; trial++ {
		tor, leaf := topo.ClusterToRs(trial % 3)[trial], topo.ClusterLeaves(trial % 3)[trial%2]
		if trial%2 == 0 {
			topo.FailLink(tor, leaf)
			topo.FailLink(topo.ClusterLeaves(1)[0], topo.Spines()[0])
		} else {
			topo.RestoreAll()
		}
		synth.RefreshDelta()
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
						if got := fmt.Sprint(allRuns(synth, topology.DeviceID(id))); got != want[id] {
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

// TestRefreshAllocsFlat: 300 ToR–leaf flips, each on a ToR not flipped
// before and each followed by a RefreshDelta, must not grow the refresh's
// cost with the faults behind it — the mallocs of the refreshes over the
// last 100 flips within 1.25× those over the first 100 — and the runs that
// follow must equal a fresh synthesis.
func TestRefreshAllocsFlat(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 10, ToRsPerCluster: 32, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 2, RSLinksPerSpine: 2,
		PrefixesPerToR: 1,
	})
	synth := NewSynth(topo, nil)
	tors := topo.ToRs()
	const flips = 300
	var ms runtime.MemStats
	mallocs := func() uint64 { runtime.ReadMemStats(&ms); return ms.Mallocs }
	var first, last uint64
	for k := 0; k < flips; k++ {
		tor := tors[k]
		topo.FailLink(tor, topo.ClusterLeaves(topo.Device(tor).Cluster)[k%2])
		if k == 0 || k == flips-100 {
			runtime.GC()
		}
		before := mallocs()
		synth.RefreshDelta()
		switch spent := mallocs() - before; {
		case k < 100:
			first += spent
		case k >= flips-100:
			last += spent
		}
	}
	t.Logf("mallocs per ToR–leaf refresh: %.2f over the first 100 flips, %.2f over the last 100", float64(first)/100, float64(last)/100)
	if float64(last) > 1.25*float64(first)+1 {
		t.Errorf("mallocs per refresh grew from %d over the first 100 flips to %d over the last 100", first, last)
	}
	if err := stateMatchesFresh(synth); err != nil {
		t.Fatal(err)
	}
	fresh := NewSynth(topo, nil)
	for id := range topo.Devices {
		d := topology.DeviceID(id)
		if got, want := fmt.Sprint(allRuns(synth, d)), fmt.Sprint(allRuns(fresh, d)); got != want {
			t.Fatalf("device %s: runs after 300 flips diverge from fresh synthesis\n got %s\nwant %s", topo.Device(d).Name, got, want)
		}
	}
}
