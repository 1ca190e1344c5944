package bgp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dcvalidate/internal/fib"
	"dcvalidate/internal/topology"
)

func tablesEqual(a, b *fib.Table) error {
	ac, bc := a.Clone(), b.Clone()
	ac.Sort()
	bc.Sort()
	if len(ac.Entries) != len(bc.Entries) {
		return fmt.Errorf("entry counts differ: %d vs %d", len(ac.Entries), len(bc.Entries))
	}
	for i := range ac.Entries {
		x, y := ac.Entries[i], bc.Entries[i]
		if x.Prefix != y.Prefix || x.Connected != y.Connected ||
			fmt.Sprint(x.NextHops) != fmt.Sprint(y.NextHops) {
			return fmt.Errorf("entry %d differs: %+v vs %+v", i, x, y)
		}
	}
	return nil
}

func checkAllTables(t *testing.T, topo *topology.Topology, cfg map[topology.DeviceID]*DeviceConfig, label string) {
	t.Helper()
	sim := NewSim(topo, cfg)
	sim.Run()
	synth := NewSynth(topo, cfg)
	for id := range topo.Devices {
		d := topology.DeviceID(id)
		st, err := sim.Table(d)
		if err != nil {
			t.Fatal(err)
		}
		yt, err := synth.Table(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := tablesEqual(st, yt); err != nil {
			t.Fatalf("%s: device %s: %v\nsim=%+v\nsynth=%+v",
				label, topo.Device(d).Name, err, st.Entries, yt.Entries)
		}
		rt := synth.TableRuns(d, nil)
		for i, r := range rt.Runs {
			if r.Lo >= r.Hi || i > 0 && rt.Runs[i-1].Hi > r.Lo {
				t.Fatalf("%s: device %s: runs not ascending and disjoint: %+v", label, topo.Device(d).Name, rt.Runs)
			}
			if i > 0 && rt.Runs[i-1].Hi == r.Lo && slices.Equal(rt.Runs[i-1].NextHops, r.NextHops) {
				t.Fatalf("%s: device %s: runs %d and %d touch with equal next hops: not maximal", label, topo.Device(d).Name, i-1, i)
			}
		}
	}
}

func TestSynthMatchesSimHealthy(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	checkAllTables(t, topo, nil, "fig3 healthy")

	topo2 := topology.MustNew(topology.Params{
		Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 2,
	})
	checkAllTables(t, topo2, nil, "3-cluster healthy")
}

func TestSynthMatchesSimFigure3Failures(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	tor1, tor2 := topo.ClusterToRs(0)[0], topo.ClusterToRs(0)[1]
	leavesA := topo.ClusterLeaves(0)
	topo.FailLink(tor1, leavesA[2])
	topo.FailLink(tor1, leavesA[3])
	topo.FailLink(tor2, leavesA[0])
	topo.FailLink(tor2, leavesA[1])
	checkAllTables(t, topo, nil, "fig3 failures")
}

// TestSynthMatchesSimRandom is the load-bearing cross-validation: random
// topologies, random link failures and session shuts, random config-knob
// injections — the two independent implementations of converged EBGP state
// must agree on every device's FIB.
func TestSynthMatchesSimRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 25; iter++ {
		p := topology.Params{
			Name:             fmt.Sprintf("rnd%d", iter),
			Clusters:         1 + rng.Intn(3),
			ToRsPerCluster:   1 + rng.Intn(4),
			LeavesPerCluster: 1 + rng.Intn(4),
			SpinesPerPlane:   1 + rng.Intn(2),
			RegionalSpines:   2,
			RSLinksPerSpine:  []int{1, 2}[rng.Intn(2)],
			PrefixesPerToR:   1 + rng.Intn(2),
		}
		topo := topology.MustNew(p)

		// Random link failures / session shuts (up to 25% of links).
		for i := range topo.Links {
			switch rng.Intn(8) {
			case 0:
				topo.Links[i].Up = false
			case 1:
				topo.Links[i].SessionUp = false
			}
		}

		// Link state alone: the derivation that works once per run.
		checkAllTables(t, topo, nil, fmt.Sprintf("random iter %d, no config (%+v)", iter, p))

		// Random config knobs.
		cfg := map[topology.DeviceID]*DeviceConfig{}
		for id := range topo.Devices {
			if rng.Intn(10) != 0 {
				continue
			}
			d := topology.DeviceID(id)
			c := &DeviceConfig{}
			switch rng.Intn(3) {
			case 0:
				c.RejectDefaultIn = true
			case 1:
				c.MaxECMPPaths = 1 + rng.Intn(2)
			case 2:
				c.SessionsDisabled = true
			}
			cfg[d] = c
		}
		// Occasionally inject the migration ASN clash between two clusters.
		if p.Clusters >= 2 && rng.Intn(3) == 0 {
			asn := topo.Device(topo.ClusterLeaves(0)[0]).ASN
			for _, leaf := range topo.ClusterLeaves(1) {
				if cfg[leaf] == nil {
					cfg[leaf] = &DeviceConfig{}
				}
				cfg[leaf].ASNOverride = asn
			}
		}
		checkAllTables(t, topo, cfg, fmt.Sprintf("random iter %d (%+v)", iter, p))
	}
}

func TestSynthScalesLazily(t *testing.T) {
	// A ~1.3k-device datacenter: synthesize a handful of FIBs without
	// running the full simulation.
	topo := topology.MustNew(topology.Params{
		Clusters: 24, ToRsPerCluster: 40, LeavesPerCluster: 8,
		SpinesPerPlane: 4, RegionalSpines: 8, RSLinksPerSpine: 4,
	})
	synth := NewSynth(topo, nil)
	tor := topo.ToRs()[0]
	tbl, err := synth.Table(tor)
	if err != nil {
		t.Fatal(err)
	}
	// default + connected + all other prefixes.
	wantEntries := 1 + 24*40
	if tbl.Len() != wantEntries {
		t.Errorf("ToR FIB entries = %d, want %d", tbl.Len(), wantEntries)
	}
	def, ok := tbl.Default()
	if !ok || len(def.NextHops) != 8 {
		t.Errorf("default next hops = %v", def)
	}
}
