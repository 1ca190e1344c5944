package contracts

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/topology"
)

func fig3Gen(t *testing.T) (*topology.Topology, *Generator, []topology.HostedPrefix) {
	t.Helper()
	topo := topology.MustNew(topology.Figure3Params())
	g := NewGenerator(metadata.FromTopology(topo))
	return topo, g, topo.HostedPrefixes()
}

func find(dc DeviceContracts, p ipnet.Prefix, k Kind) (Contract, bool) {
	for _, c := range dc.Contracts {
		if c.Kind == k && c.Prefix == p {
			return c, true
		}
	}
	return Contract{}, false
}

// TestFigure4ToR1 checks the exact contract table of Figure 4 for ToR1.
func TestFigure4ToR1(t *testing.T) {
	topo, g, hps := fig3Gen(t)
	tor1 := topo.ClusterToRs(0)[0]
	dc := g.ForDevice(tor1)

	// 1 default + 3 specific (PrefixB, PrefixC, PrefixD).
	if len(dc.Contracts) != 4 {
		t.Fatalf("ToR1 contracts = %d, want 4", len(dc.Contracts))
	}
	leaves := topo.ClusterLeaves(0)
	def, ok := find(dc, ipnet.Prefix{}, Default)
	if !ok || len(def.NextHops) != 4 {
		t.Fatalf("ToR1 default contract = %+v", def)
	}
	for i, nh := range def.NextHops {
		if nh != leaves[i] {
			t.Errorf("default next hop %d = %v", i, nh)
		}
	}
	for _, hp := range hps[1:] {
		c, ok := find(dc, hp.Prefix, Specific)
		if !ok {
			t.Errorf("missing specific contract for %v", hp.Prefix)
			continue
		}
		if len(c.NextHops) != 4 {
			t.Errorf("contract %v next hops = %v", hp.Prefix, c.NextHops)
		}
	}
	// No contract for the ToR's own hosted prefix.
	if _, ok := find(dc, hps[0].Prefix, Specific); ok {
		t.Error("ToR has a contract for its own prefix")
	}
}

// TestFigure4A1 checks the Figure 4 contract table for leaf A1.
func TestFigure4A1(t *testing.T) {
	topo, g, hps := fig3Gen(t)
	a1 := topo.ClusterLeaves(0)[0]
	d1 := topo.Spines()[0]
	dc := g.ForDevice(a1)
	if len(dc.Contracts) != 5 {
		t.Fatalf("A1 contracts = %d, want 5", len(dc.Contracts))
	}
	def, _ := find(dc, ipnet.Prefix{}, Default)
	if len(def.NextHops) != 1 || def.NextHops[0] != d1 {
		t.Errorf("A1 default contract = %v", def.NextHops)
	}
	// PrefixA -> ToR1, PrefixB -> ToR2 (direct to hosting ToR).
	for i, wantToR := range []topology.DeviceID{topo.ClusterToRs(0)[0], topo.ClusterToRs(0)[1]} {
		c, _ := find(dc, hps[i].Prefix, Specific)
		if len(c.NextHops) != 1 || c.NextHops[0] != wantToR {
			t.Errorf("A1 %v contract = %v", hps[i].Prefix, c.NextHops)
		}
	}
	// PrefixC, PrefixD -> D1.
	for _, i := range []int{2, 3} {
		c, _ := find(dc, hps[i].Prefix, Specific)
		if len(c.NextHops) != 1 || c.NextHops[0] != d1 {
			t.Errorf("A1 %v contract = %v", hps[i].Prefix, c.NextHops)
		}
	}
}

// TestFigure4D1 checks the Figure 4 contract table for spine D1.
func TestFigure4D1(t *testing.T) {
	topo, g, hps := fig3Gen(t)
	d1 := topo.Spines()[0]
	dc := g.ForDevice(d1)
	if len(dc.Contracts) != 5 {
		t.Fatalf("D1 contracts = %d, want 5", len(dc.Contracts))
	}
	r1, r3 := topo.RegionalSpines()[0], topo.RegionalSpines()[2]
	def, _ := find(dc, ipnet.Prefix{}, Default)
	if len(def.NextHops) != 2 || def.NextHops[0] != r1 || def.NextHops[1] != r3 {
		t.Errorf("D1 default contract = %v", def.NextHops)
	}
	a1, b1 := topo.ClusterLeaves(0)[0], topo.ClusterLeaves(1)[0]
	for i, want := range []topology.DeviceID{a1, a1, b1, b1} {
		c, _ := find(dc, hps[i].Prefix, Specific)
		if len(c.NextHops) != 1 || c.NextHops[0] != want {
			t.Errorf("D1 %v contract = %v, want [%v]", hps[i].Prefix, c.NextHops, want)
		}
	}
}

func TestRegionalSpineContracts(t *testing.T) {
	topo, g, hps := fig3Gen(t)
	r1 := topo.RegionalSpines()[0]
	dc := g.ForDevice(r1)
	// Specific contracts only — no default contract.
	if _, ok := find(dc, ipnet.Prefix{}, Default); ok {
		t.Error("RS has a default contract")
	}
	if len(dc.Contracts) != len(hps) {
		t.Fatalf("RS contracts = %d, want %d", len(dc.Contracts), len(hps))
	}
	// Next hops: the two spines connected to R1 (D1 and D3).
	d1, d3 := topo.Spines()[0], topo.Spines()[2]
	for _, hp := range hps {
		c, _ := find(dc, hp.Prefix, Specific)
		if len(c.NextHops) != 2 || c.NextHops[0] != d1 || c.NextHops[1] != d3 {
			t.Errorf("R1 %v contract = %v", hp.Prefix, c.NextHops)
		}
	}
}

func TestContractsIgnoreLinkState(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	before := NewGenerator(metadata.FromTopology(topo)).ForDevice(topo.ToRs()[0])
	topo.FailLink(topo.ToRs()[0], topo.ClusterLeaves(0)[0])
	after := NewGenerator(metadata.FromTopology(topo)).ForDevice(topo.ToRs()[0])
	if len(before.Contracts) != len(after.Contracts) {
		t.Fatal("contract count changed with link state")
	}
	for i := range before.Contracts {
		b, a := before.Contracts[i], after.Contracts[i]
		if b.Prefix != a.Prefix || len(b.NextHops) != len(a.NextHops) {
			t.Fatal("contracts changed with link state")
		}
	}
}

func TestAllAndCount(t *testing.T) {
	topo, g, _ := fig3Gen(t)
	all := g.All()
	if len(all) != len(topo.Devices) {
		t.Fatalf("All = %d device sets", len(all))
	}
	total := 0
	for _, dc := range all {
		total += len(dc.Contracts)
	}
	if g.Count() != total {
		t.Errorf("Count = %d, sum = %d", g.Count(), total)
	}
	// fig3: 4 ToRs × 4 + 8 leaves × 5 + 4 spines × 5 + 4 RS × 4 = 92.
	if total != 92 {
		t.Errorf("total contracts = %d, want 92", total)
	}
}

func TestNextHopsSorted(t *testing.T) {
	_, g, _ := fig3Gen(t)
	for _, dc := range g.All() {
		for _, c := range dc.Contracts {
			for i := 1; i < len(c.NextHops); i++ {
				if c.NextHops[i-1] >= c.NextHops[i] {
					t.Fatalf("unsorted next hops in %+v", c)
				}
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if Specific.String() != "specific" || Default.String() != "default" {
		t.Error("Kind.String wrong")
	}
}

// TestOverlappingMatchesWalk pins the binary-search lookups on a generated
// contract set to a plain walk over it.
func TestOverlappingMatchesWalk(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 3, ToRsPerCluster: 3, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 2, RSLinksPerSpine: 1, PrefixesPerToR: 2,
	})
	g := NewGenerator(metadata.FromTopology(topo))
	probes := []ipnet.Prefix{{}, ipnet.MustParsePrefix("10.0.0.0/8"), ipnet.MustParsePrefix("10.0.3.0/25"),
		ipnet.MustParsePrefix("10.0.2.0/23"), ipnet.MustParsePrefix("11.0.0.0/8")}
	for _, hp := range topo.HostedPrefixes() {
		probes = append(probes, hp.Prefix)
	}
	for id := range topo.Devices {
		dc := g.ForDevice(topology.DeviceID(id))
		wi, wok := 0, false
		for i, c := range dc.Contracts {
			if c.Kind == Default {
				wi, wok = i, true
				break
			}
		}
		if gi, gok := dc.Default(); gi != wi || gok != wok {
			t.Fatalf("device %d: Default() = %d,%v, walk says %d,%v", id, gi, gok, wi, wok)
		}
		for _, p := range probes {
			var want []int
			for i, c := range dc.Contracts {
				if c.Kind == Specific && c.Prefix.Overlaps(p) {
					want = append(want, i)
				}
			}
			if got := dc.Overlapping(nil, p); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("device %d: Overlapping(%s) = %v, walk says %v", id, p, got, want)
			}
		}
	}
}

// TestToRContractsSkipHostedPrefixes: a ToR expects its uplinks for every
// fleet prefix its own HostedPrefixes do not list — the rule the generator
// decides from each prefix's owner — on fleets hosting several prefixes
// per ToR, in an ascending plan and in one whose ToRs swapped blocks.
func TestToRContractsSkipHostedPrefixes(t *testing.T) {
	for _, swap := range []bool{false, true} {
		for _, per := range []int{2, 3} {
			topo := topology.MustNew(topology.Params{
				Clusters: 3, ToRsPerCluster: 3, LeavesPerCluster: 2, SpinesPerPlane: 2,
				RegionalSpines: 4, RSLinksPerSpine: 2, PrefixesPerToR: per,
			})
			if swap {
				topo.SwapHostedPrefixes(topo.ToRs()[0], topo.ToRs()[4])
			}
			facts := metadata.FromTopology(topo)
			g := NewGenerator(facts)
			for _, tor := range topo.ToRs() {
				df := facts.Device(tor)
				var want []ipnet.Prefix
				for _, p := range facts.Prefixes {
					if !slices.Contains(df.HostedPrefixes, p.Prefix) {
						want = append(want, p.Prefix)
					}
				}
				var got []ipnet.Prefix
				for _, c := range g.Generate(tor, nil).Contracts {
					if c.Kind == Specific {
						got = append(got, c.Prefix)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("swap=%v per=%d %s: specific contracts on %v, want %v", swap, per, df.Name, got, want)
				}
			}
		}
	}
}

// TestRunsAreMaximalAndShared pins the runs every role's contracts come
// as: a leaf's in-cluster contracts toward one ToR share one next-hop
// slice, so equal expectations are one run; neighbouring runs never share
// a slice (they would be one run); and a ToR's contracts are one run on
// each side of its own prefix.
func TestRunsAreMaximalAndShared(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2, SpinesPerPlane: 2,
		RegionalSpines: 2, RSLinksPerSpine: 1, PrefixesPerToR: 3,
	})
	g := NewGenerator(metadata.FromTopology(topo))
	ps := g.Prefixes()
	for _, d := range topo.Devices {
		dr := g.Runs(d.ID, nil)
		for i, r := range dr.Runs {
			if r.Lo >= r.Hi || i > 0 && dr.Runs[i-1].Hi > r.Lo {
				t.Fatalf("%s: runs not ascending and disjoint: %+v", d.Name, dr.Runs)
			}
			if i > 0 && dr.Runs[i-1].Hi == r.Lo && sameSlice(dr.Runs[i-1].NextHops, r.NextHops) {
				t.Fatalf("%s: runs %d and %d share a slice and touch: not maximal", d.Name, i-1, i)
			}
		}
		if got := len(dr.Expand(ps, nil).Contracts); got != dr.Len() {
			t.Fatalf("%s: %d runs expand to %d contracts, Len says %d", d.Name, len(dr.Runs), got, dr.Len())
		}
		switch d.Role {
		case topology.RoleToR:
			if len(dr.Runs) > 2 {
				t.Errorf("%s: %d runs, want at most one each side of its own prefixes", d.Name, len(dr.Runs))
			}
		case topology.RoleLeaf:
			byToR := map[topology.DeviceID]*topology.DeviceID{}
			for _, c := range g.Generate(d.ID, nil).Contracts {
				if c.Kind != Specific || len(c.NextHops) != 1 || topo.Device(c.NextHops[0]).Role != topology.RoleToR {
					continue
				}
				tor := c.NextHops[0]
				if p, ok := byToR[tor]; ok && p != &c.NextHops[0] {
					t.Fatalf("%s: contracts toward %s do not share one next-hop slice", d.Name, topo.Device(tor).Name)
				}
				byToR[tor] = &c.NextHops[0]
			}
			if len(byToR) != 4 {
				t.Fatalf("%s: in-cluster contracts toward %d ToRs, want 4", d.Name, len(byToR))
			}
		}
	}
}

// TestRunsMatchPerPrefixRule checks the located runs against §2.4's rule
// applied prefix by prefix, on facts in topology order and on facts whose
// prefix list (and a spine's downlinks) were shuffled, so that a ToR's
// prefixes and a cluster's are scattered in several stretches.
func TestRunsMatchPerPrefixRule(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 3, ToRsPerCluster: 3, LeavesPerCluster: 2, SpinesPerPlane: 2,
		RegionalSpines: 2, RSLinksPerSpine: 1, PrefixesPerToR: 2,
	})
	rng := rand.New(rand.NewSource(5))
	for _, shuffle := range []bool{false, true} {
		facts := metadata.FromTopology(topo)
		if shuffle {
			rng.Shuffle(len(facts.Prefixes), func(i, j int) { facts.Prefixes[i], facts.Prefixes[j] = facts.Prefixes[j], facts.Prefixes[i] })
			down := slices.Clone(facts.Device(topo.Spines()[0]).Downlinks)
			slices.Reverse(down)
			facts.Device(topo.Spines()[0]).Downlinks = down
		}
		g := NewGenerator(facts)
		for _, d := range topo.Devices {
			df := facts.Device(d.ID)
			var want []Contract
			for _, p := range facts.Prefixes {
				var hops []topology.DeviceID
				switch d.Role {
				case topology.RoleToR:
					if p.ToR != d.ID {
						hops = devIDs(df.Uplinks)
					}
				case topology.RoleLeaf:
					hops = devIDs(df.Uplinks)
					if p.Cluster == df.Cluster {
						hops = []topology.DeviceID{p.ToR}
					}
				case topology.RoleSpine:
					for _, n := range df.Downlinks {
						if facts.Device(n.Device).Cluster == p.Cluster {
							hops = append(hops, n.Device)
						}
					}
					slices.Sort(hops)
				case topology.RoleRegionalSpine:
					hops = devIDs(df.Downlinks)
				}
				if len(hops) > 0 {
					want = append(want, Contract{Device: d.ID, Kind: Specific, Prefix: p.Prefix, NextHops: hops})
				}
			}
			got := g.Generate(d.ID, nil).Contracts
			if _, ok := g.Generate(d.ID, nil).Default(); ok {
				got = got[1:]
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("shuffle=%v %s: contracts\n%v\nwant\n%v", shuffle, d.Name, got, want)
			}
		}
	}
}
