package delta_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/topology"
)

// multiSpine is a topology with SpinesPerPlane > 1, so single leaf–spine
// failures leave alternative plane paths and the blast radius can exclude
// ToRs.
func multiSpine(t *testing.T) *topology.Topology {
	t.Helper()
	return topology.MustNew(topology.Params{
		Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 1,
	})
}

func changesAfter(t *testing.T, topo *topology.Topology, gen uint64) []topology.Change {
	t.Helper()
	cs, ok := topo.ChangesSince(gen)
	if !ok {
		t.Fatal("journal truncated unexpectedly")
	}
	return cs
}

func TestLeafSpineBlastExcludesToRsWithAlternatives(t *testing.T) {
	topo := multiSpine(t)
	leaf := topo.ClusterLeaves(0)[0]
	gen := topo.Generation()
	// Fail the link to one of the leaf's two plane spines.
	var spine topology.DeviceID = -1
	for _, n := range topo.Neighbors(leaf) {
		if topo.Device(n).Role == topology.RoleSpine {
			spine = n
			break
		}
	}
	if !topo.FailLink(leaf, spine) {
		t.Fatal("FailLink failed")
	}
	ds := delta.Compute(topo, changesAfter(t, topo, gen), delta.Options{})
	if ds.Full() {
		t.Fatal("single leaf-spine failure should not degrade to full")
	}
	if !ds.Contains(leaf) || !ds.Contains(spine) {
		t.Fatal("endpoints must be dirty")
	}
	// The second plane spine still carries every route: no ToR is dirty.
	for _, tor := range topo.ToRs() {
		if ds.Contains(tor) {
			t.Fatalf("ToR %s dirty despite alternative spine", topo.Device(tor).Name)
		}
	}
	// All plane leaves are dirty (their via-spine ECMP sets mention the spine).
	for c := 0; c < topo.Params.Clusters; c++ {
		if l2 := topo.ClusterLeaves(c)[topo.Device(leaf).Plane]; !ds.Contains(l2) {
			t.Fatalf("plane leaf %s not dirty", topo.Device(l2).Name)
		}
	}
}

func TestSpineRSBlastIsTinyWithAlternatives(t *testing.T) {
	topo := multiSpine(t)
	spine := topo.Spines()[0]
	var rs topology.DeviceID = -1
	for _, n := range topo.Neighbors(spine) {
		if topo.Device(n).Role == topology.RoleRegionalSpine {
			rs = n
			break
		}
	}
	gen := topo.Generation()
	if !topo.FailLink(spine, rs) {
		t.Fatal("FailLink failed")
	}
	ds := delta.Compute(topo, changesAfter(t, topo, gen), delta.Options{})
	if ds.Full() || ds.Count() != 2 || !ds.Contains(spine) || !ds.Contains(rs) {
		t.Fatalf("spine-RS blast = %v (full=%v), want exactly the endpoints",
			ds.Devices(), ds.Full())
	}
}

func TestToRLeafBlastCoversPlane(t *testing.T) {
	topo := multiSpine(t)
	tor := topo.ToRs()[0]
	leaf := topo.ClusterLeaves(0)[0]
	gen := topo.Generation()
	if !topo.FailLink(tor, leaf) {
		t.Fatal("FailLink failed")
	}
	ds := delta.Compute(topo, changesAfter(t, topo, gen), delta.Options{})
	for _, d := range topo.ToRs() {
		if !ds.Contains(d) {
			t.Fatalf("ToR %s not dirty after ToR-leaf failure", topo.Device(d).Name)
		}
	}
	for _, d := range topo.RegionalSpines() {
		if !ds.Contains(d) {
			t.Fatalf("RS %s not dirty after ToR-leaf failure", topo.Device(d).Name)
		}
	}
}

func TestDeviceChangeAndUnboundedConfigFallBack(t *testing.T) {
	topo := multiSpine(t)
	gen := topo.Generation()
	topo.NoteDeviceChanged(topo.ToRs()[0])
	if ds := delta.Compute(topo, changesAfter(t, topo, gen), delta.Options{}); !ds.Full() {
		t.Fatal("ChangeDevice must degrade to full")
	}

	gen = topo.Generation()
	topo.FailLink(topo.ToRs()[0], topo.ClusterLeaves(0)[0])
	opts := delta.Options{UnboundedConfig: true}
	if ds := delta.Compute(topo, changesAfter(t, topo, gen), opts); !ds.Full() {
		t.Fatal("UnboundedConfig with link changes must degrade to full")
	}
}

// TestRowScopesUnionWithoutLimit flips two leaf–spine links of different
// clusters in one window: the plane's other leaves carry both clusters'
// prefixes as a row scope, however many that is — a scope never widens to
// the whole device for being long.
func TestRowScopesUnionWithoutLimit(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 3, ToRsPerCluster: 12, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 2, RSLinksPerSpine: 1,
		PrefixesPerToR: 4,
	})
	gen := topo.Generation()
	for c := 0; c < 2; c++ {
		if !topo.FailLink(topo.ClusterLeaves(c)[0], topo.Spines()[0]) {
			t.Fatal("FailLink failed")
		}
	}
	ds := delta.Compute(topo, changesAfter(t, topo, gen), delta.Options{})
	sc, ok := ds.Scope(topo.ClusterLeaves(2)[0])
	if want := 2 * 12 * 4; !ok || sc.Whole || len(sc.Rows) != want {
		t.Fatalf("third plane leaf: scope ok=%v whole=%v with %d rows, want %d rows", ok, sc.Whole, len(sc.Rows), want)
	}
	for i := 1; i < len(sc.Rows); i++ {
		if sc.Rows[i-1].Compare(sc.Rows[i]) >= 0 {
			t.Fatalf("rows not ascending at %d: %s, %s", i, sc.Rows[i-1], sc.Rows[i])
		}
	}
}

// TestUnorderedAddressPlanScopesWhole: row scopes are addressed by binary
// search downstream, so an address plan that is not ascending and disjoint
// gets whole-device scopes over the same devices.
func TestUnorderedAddressPlanScopesWhole(t *testing.T) {
	flat, swapped := multiSpine(t), multiSpine(t)
	a, b := swapped.Device(swapped.ToRs()[0]), swapped.Device(swapped.ToRs()[4])
	a.HostedPrefixes, b.HostedPrefixes = b.HostedPrefixes, a.HostedPrefixes
	var sets [2]*delta.Set
	for i, topo := range []*topology.Topology{flat, swapped} {
		gen := topo.Generation()
		topo.FailLink(topo.ToRs()[1], topo.ClusterLeaves(0)[0])
		sets[i] = delta.Compute(topo, changesAfter(t, topo, gen), delta.Options{})
	}
	if fmt.Sprint(sets[0].Devices()) != fmt.Sprint(sets[1].Devices()) {
		t.Fatalf("dirty devices differ: %v vs %v", sets[0].Devices(), sets[1].Devices())
	}
	rowScoped := 0
	for _, d := range sets[0].Devices() {
		if sc, _ := sets[0].Scope(d); !sc.Whole {
			rowScoped++
		}
		if sc, _ := sets[1].Scope(d); !sc.Whole {
			t.Fatalf("device %s has a row scope on an unordered address plan", swapped.Device(d).Name)
		}
	}
	if rowScoped == 0 {
		t.Fatal("the flat plan should yield row scopes")
	}
}

func TestEmptyWindowIsEmpty(t *testing.T) {
	topo := multiSpine(t)
	ds := delta.Compute(topo, nil, delta.Options{})
	if ds.Full() || ds.Count() != 0 {
		t.Fatalf("empty change window must be empty, got %v full=%v", ds.Devices(), ds.Full())
	}
}

// tableRows snapshots every device's converged table from scratch, one
// rendered row per prefix.
func tableRows(t *testing.T, topo *topology.Topology, cfg map[topology.DeviceID]*bgp.DeviceConfig) []map[ipnet.Prefix]string {
	t.Helper()
	s := bgp.NewSynth(topo, cfg)
	out := make([]map[ipnet.Prefix]string, len(topo.Devices))
	for id := range topo.Devices {
		tbl, err := s.Table(topology.DeviceID(id))
		if err != nil {
			t.Fatal(err)
		}
		rows := make(map[ipnet.Prefix]string, len(tbl.Entries))
		for _, e := range tbl.Entries {
			rows[e.Prefix] = fmt.Sprint(e)
		}
		out[id] = rows
	}
	return out
}

func inScope(sc delta.Scope, p ipnet.Prefix) bool {
	if sc.Whole {
		return true
	}
	for _, q := range sc.Rows {
		if q == p {
			return true
		}
	}
	return false
}

// TestBlastRadiusIsSuperset is the soundness property, at row level:
// after any random window of link and session flips — applied to
// arbitrary (possibly already degraded) starting states, some flipped and
// flipped back inside the window — every FIB row that differs between the
// before and after from-scratch tables, the default row and rows that
// appear or vanish included, lies inside its device's scope.
func TestBlastRadiusIsSuperset(t *testing.T) {
	paramSets := []topology.Params{
		topology.Figure3Params(), // SpinesPerPlane == 1: no alternatives
		{Clusters: 3, ToRsPerCluster: 2, LeavesPerCluster: 2,
			SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2, PrefixesPerToR: 1},
		{Clusters: 4, ToRsPerCluster: 2, LeavesPerCluster: 3,
			SpinesPerPlane: 3, RegionalSpines: 6, RSLinksPerSpine: 2, PrefixesPerToR: 2},
	}
	for pi, p := range paramSets {
		p := p
		t.Run(fmt.Sprintf("params%d", pi), func(t *testing.T) {
			topo := topology.MustNew(p)
			// A safe config knob on a few devices: ECMP truncation must not
			// break the bound (it only changes when the full set does).
			cfg := map[topology.DeviceID]*bgp.DeviceConfig{
				topo.ToRs()[0]:   {MaxECMPPaths: 1},
				topo.Leaves()[1]: {MaxECMPPaths: 2},
			}
			rng := rand.New(rand.NewSource(int64(42 + pi)))
			flip := func(lid topology.LinkID, session, up bool) {
				if session {
					topo.SetSessionUp(lid, up)
				} else {
					topo.SetLinkUp(lid, up)
				}
			}
			for trial := 0; trial < 80; trial++ {
				before := tableRows(t, topo, cfg)
				gen := topo.Generation()
				nflips := 1 + rng.Intn(4)
				for i := 0; i < nflips; i++ {
					lid := topology.LinkID(rng.Intn(len(topo.Links)))
					session, up := rng.Intn(2) == 0, rng.Intn(2) == 0
					flip(lid, session, up)
					if rng.Intn(4) == 0 {
						flip(lid, session, !up) // and straight back
					}
				}
				ds := delta.Compute(topo, changesAfter(t, topo, gen), delta.Options{})
				if ds.Full() {
					continue // trivially sound
				}
				after := tableRows(t, topo, cfg)
				for id := range topo.Devices {
					d := topology.DeviceID(id)
					sc, dirty := ds.Scope(d)
					check := func(p ipnet.Prefix) {
						if before[d][p] == after[d][p] || (dirty && inScope(sc, p)) {
							return
						}
						cs, _ := topo.ChangesSince(gen)
						t.Fatalf("trial %d: device %s row %s changed outside its scope\nchanges: %+v\ndirty: %v scope: %+v\nbefore: %q\nafter:  %q",
							trial, topo.Device(d).Name, p, cs, dirty, sc, before[d][p], after[d][p])
					}
					for p := range before[d] {
						check(p)
					}
					for p := range after[d] {
						check(p)
					}
				}
			}
		})
	}
}
