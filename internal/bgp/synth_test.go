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
		rt := allRuns(synth, d)
		for i, r := range rt.Runs {
			if r.Lo >= r.Hi || i > 0 && rt.Runs[i-1].Hi > r.Lo {
				t.Fatalf("%s: device %s: runs not ascending and disjoint: %+v", label, topo.Device(d).Name, rt.Runs)
			}
			if i > 0 && rt.Runs[i-1].Hi == r.Lo && slices.Equal(rt.Runs[i-1].NextHops, r.NextHops) {
				t.Fatalf("%s: device %s: runs %d and %d touch with equal next hops: not maximal", label, topo.Device(d).Name, i-1, i)
			}
		}
		// Over a stretch — each cluster's, and what lies before and after
		// it — the runs are the whole runs cut at its edges.
		n := len(synth.RunPrefixes())
		for c := 0; c < topo.Params.Clusters; c++ {
			lo, hi := synth.clusterSpan(c)
			for _, st := range [][2]int{{0, lo}, {lo, hi}, {hi, n}} {
				got := synth.TableRuns(d, st[0], st[1], fib.RunTable{})
				if want := clipRuns(rt.Runs, st[0], st[1]); fmt.Sprint(got.Runs, got.Rows) != fmt.Sprint(want, rt.Rows) {
					t.Fatalf("%s: device %s: runs over [%d,%d) %v, want the whole runs cut there %v", label, topo.Device(d).Name, st[0], st[1], got, want)
				}
			}
		}
	}
}

// allRuns returns d's runs over the whole prefix list.
func allRuns(s *Synth, d topology.DeviceID) fib.RunTable {
	return s.TableRuns(d, 0, len(s.RunPrefixes()), fib.RunTable{})
}

// clipRuns returns the parts of runs inside positions [lo, hi).
func clipRuns(runs []fib.Run, lo, hi int) []fib.Run {
	var out []fib.Run
	for _, r := range runs {
		if r.Lo < hi && r.Hi > lo {
			out = append(out, fib.Run{Lo: max(r.Lo, lo), Hi: min(r.Hi, hi), NextHops: r.NextHops})
		}
	}
	return out
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
			Clusters:         1 + rng.Intn(4),
			ToRsPerCluster:   1 + rng.Intn(6),
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

// TestSynthMatchesSimDirectPattern covers prefixes of one spine class whose
// hosting leaves differ in who has the direct route. A leaf with every
// plane-spine session shut adds nothing to any class, so a ToR–leaf link of
// its going down changes only the direct pattern of that ToR's prefixes:
// runs derived once per block are right only if blocks split there too.
func TestSynthMatchesSimDirectPattern(t *testing.T) {
	for _, tor := range []int{0, 2, 3} {
		topo := topology.MustNew(topology.Params{
			Clusters: 2, ToRsPerCluster: 4, LeavesPerCluster: 3,
			SpinesPerPlane: 2, RegionalSpines: 2, RSLinksPerSpine: 1,
			PrefixesPerToR: 2,
		})
		leaf := topo.ClusterLeaves(0)[1]
		spp := topo.Params.SpinesPerPlane
		for _, sp := range topo.Spines()[spp : 2*spp] {
			topo.ShutSession(leaf, sp)
		}
		topo.FailLink(topo.ClusterToRs(0)[tor], leaf)

		s := NewSynth(topo, nil)
		lo, hi := s.clusterSpan(0)
		for pi := lo; pi < hi; pi++ {
			if got, want := s.torClass[s.prefixes[pi].ToR], s.torClass[s.prefixes[lo].ToR]; got != want {
				t.Fatalf("tor %d: cluster 0 spans classes %d and %d, want one", tor, want, got)
			}
		}
		cut, other := topo.ClusterToRs(0)[tor], topo.ClusterToRs(0)[(tor+1)%4]
		if s.mask(cut)[1] || !s.mask(other)[1] {
			t.Fatalf("tor %d: the fault did not split the direct pattern of cluster 0", tor)
		}
		checkAllTables(t, topo, nil, fmt.Sprintf("leaf without spines, ToR %d cut from it", tor))
	}
}

// FuzzSynthMatchesSim is TestSynthMatchesSimRandom under the fuzzer: a
// small Clos fabric shaped by shape, with the link failures and session
// shuts faults lists (a link index and a kind per byte pair) and the config
// knobs knobs lists (a device index and a knob per pair; bit 11 of shape
// adds the migration ASN clash). Every device's Synth table must equal the
// Sim oracle's, and its runs must be maximal.
func FuzzSynthMatchesSim(f *testing.F) {
	f.Add(uint32(0), []byte{}, []byte{})
	f.Add(uint32(3|5<<2|3<<5|1<<7|1<<8|1<<9), []byte{4, 0, 17, 1, 40, 0}, []byte{})
	f.Add(uint32(3|5<<2|3<<5|1<<11), []byte{2, 1, 9, 0}, []byte{5, 0, 12, 1, 30, 3})
	// TestSynthMatchesSimDirectPattern's fabric: leaf 1 of cluster 0 shut
	// from both its spines (links 26, 27), ToR 2's link to it down (7).
	f.Add(uint32(1|3<<2|2<<5|1<<7|1<<9), []byte{26, 1, 27, 1, 7, 0}, []byte{})
	f.Fuzz(func(t *testing.T, shape uint32, faults, knobs []byte) {
		p := topology.Params{
			Name:             "fuzz",
			Clusters:         1 + int(shape%4),
			ToRsPerCluster:   1 + int(shape>>2%8)%6,
			LeavesPerCluster: 1 + int(shape>>5%4),
			SpinesPerPlane:   1 + int(shape>>7%2),
			RegionalSpines:   2,
			RSLinksPerSpine:  1 + int(shape>>8%2),
			PrefixesPerToR:   1 + int(shape>>9%2),
		}
		topo := topology.MustNew(p)
		for i := 0; i+1 < len(faults) && i < 64; i += 2 {
			l := topology.LinkID(int(faults[i]) % len(topo.Links))
			switch faults[i+1] % 3 {
			case 0:
				topo.SetLinkUp(l, false)
			case 1:
				topo.SetSessionUp(l, false)
			}
		}
		checkAllTables(t, topo, nil, fmt.Sprintf("%+v, no config", p))

		cfg := map[topology.DeviceID]*DeviceConfig{}
		for i := 0; i+1 < len(knobs) && i < 32; i += 2 {
			d := topology.DeviceID(int(knobs[i]) % len(topo.Devices))
			c := cfg[d]
			if c == nil {
				c = &DeviceConfig{}
				cfg[d] = c
			}
			switch knobs[i+1] % 4 {
			case 0:
				c.RejectDefaultIn = true
			case 1, 2:
				c.MaxECMPPaths = int(knobs[i+1] % 4)
			case 3:
				c.SessionsDisabled = true
			}
		}
		if p.Clusters >= 2 && shape>>11&1 == 1 {
			asn := topo.Device(topo.ClusterLeaves(0)[0]).ASN
			for _, leaf := range topo.ClusterLeaves(1) {
				if cfg[leaf] == nil {
					cfg[leaf] = &DeviceConfig{}
				}
				cfg[leaf].ASNOverride = asn
			}
		}
		if len(cfg) > 0 {
			checkAllTables(t, topo, cfg, fmt.Sprintf("%+v, config", p))
		}
	})
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
