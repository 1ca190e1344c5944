package bgp

import (
	"fmt"
	"math/rand"
	"testing"

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
// fleets, with and without ECMP truncation, every cached table after
// Refresh equals a fresh synthesis entry for entry and in order (rows that
// appeared or vanished included) and run for run, Rows returns exactly the
// overlapping rows plus the default, and tables handed out before the
// refresh are not written through.
func TestSynthCachePatchMatchesFresh(t *testing.T) {
	p := topology.Params{
		Clusters: 3, ToRsPerCluster: 3, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 2,
	}
	for _, truncate := range []bool{false, true} {
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
		held := pullAll()
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 60; trial++ {
			heldBefore := make([]string, len(held))
			for id := range held {
				heldBefore[id] = render(held[id].Entries)
			}
			for i, n := 0, 1+rng.Intn(3); i < n; i++ {
				lid := topology.LinkID(rng.Intn(len(topo.Links)))
				if rng.Intn(2) == 0 {
					topo.SetLinkUp(lid, rng.Intn(2) == 0)
				} else {
					topo.SetSessionUp(lid, rng.Intn(2) == 0)
				}
			}
			cached.Refresh()
			for id := range held {
				if got := render(held[id].Entries); got != heldBefore[id] {
					t.Fatalf("trial %d: refresh wrote through a table handed out earlier (device %d)", trial, id)
				}
			}
			fresh := NewSynth(topo, cfg)
			held = pullAll()
			for id := range topo.Devices {
				d := topology.DeviceID(id)
				want, _ := fresh.Table(d)
				if got, want := render(held[id].Entries), render(want.Entries); got != want {
					t.Fatalf("trial %d: device %s: cached table diverges from fresh synthesis\n got %s\nwant %s",
						trial, topo.Device(d).Name, got, want)
				}
				if got, want := fmt.Sprint(cached.TableRuns(d, nil)), fmt.Sprint(fresh.TableRuns(d, nil)); got != want {
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
			t.Fatalf("truncate=%v: %v rows patched, %v tables evicted — want both paths exercised", truncate, patched, evicted)
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
