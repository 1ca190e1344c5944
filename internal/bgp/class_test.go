package bgp

import (
	"testing"

	"dcvalidate/internal/fib"
	"dcvalidate/internal/topology"
)

// classFleet is three clusters of four ToRs over two planes of two spines:
// a ToR's direct mask and a leaf's spine set are both two bits wide, so
// one ToR and one leaf can differ in their role alone.
func classFleet() *topology.Topology {
	return topology.MustNew(topology.Params{
		Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 1,
	})
}

// TestRunClassKeysEachIngredient: two devices that differ in exactly one
// ingredient of the class key — one direct-mask bit, one spine of a leaf's
// live set, the cluster, the plane, the role — get different keys, and two
// that differ in none get one key. The stretch is the last cluster's
// prefixes, outside every device compared.
func TestRunClassKeysEachIngredient(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fault  func(*topology.Topology)
		a, b   func(*topology.Topology) topology.DeviceID
		differ string // the one field that differs, "" for none
	}{
		{"same ToRs", nil, tor(0, 0), tor(0, 1), ""},
		{"direct-mask bit", func(t *topology.Topology) { t.FailLink(tor(0, 1)(t), leaf(0, 1)(t)) }, tor(0, 0), tor(0, 1), "Bits"},
		{"cluster", nil, tor(0, 0), tor(1, 0), "Group"},
		{"same leaves", nil, leaf(0, 0), leaf(1, 0), ""},
		{"spine in a leaf's live set", func(t *topology.Topology) { t.ShutSession(leaf(1, 0)(t), t.Spines()[1]) }, leaf(0, 0), leaf(1, 0), "Bits"},
		{"plane", nil, leaf(0, 0), leaf(0, 1), "Group"},
		{"role", nil, tor(0, 0), leaf(1, 0), "Role"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo := classFleet()
			if tc.fault != nil {
				tc.fault(topo)
			}
			s := NewSynth(topo, nil)
			lo, hi := s.clusterSpan(2)
			a, okA := s.RunClass(tc.a(topo), lo, hi)
			b, okB := s.RunClass(tc.b(topo), lo, hi)
			if !okA || !okB {
				t.Fatalf("unclassed: %v %v", okA, okB)
			}
			got := ""
			for _, f := range []struct {
				name string
				same bool
			}{{"Role", a.Role == b.Role}, {"Group", a.Group == b.Group}, {"Bits", a.Bits == b.Bits}} {
				if !f.same {
					if got != "" {
						t.Fatalf("keys %+v and %+v differ in %s and %s, want only %q", a, b, got, f.name, tc.differ)
					}
					got = f.name
				}
			}
			if got != tc.differ {
				t.Fatalf("keys %+v and %+v differ in %q, want %q", a, b, got, tc.differ)
			}
		})
	}
}

// TestRunClassCovers pins what RunClass vouches for: a ToR or a leaf over
// a stretch outside its own cluster, on a fleet without configuration —
// not a spine or a regional spine, not a stretch that touches the device's
// own cluster, not an empty one, and nothing under a configuration.
func TestRunClassCovers(t *testing.T) {
	topo := classFleet()
	s := NewSynth(topo, nil)
	lo, hi := s.clusterSpan(2)
	for _, tc := range []struct {
		name   string
		s      *Synth
		d      topology.DeviceID
		lo, hi int
		ok     bool
	}{
		{"ToR", s, tor(0, 0)(topo), lo, hi, true},
		{"leaf", s, leaf(1, 1)(topo), lo, hi, true},
		{"spine", s, topo.Spines()[0], lo, hi, false},
		{"regional spine", s, topo.RegionalSpines()[0], lo, hi, false},
		{"own cluster", s, tor(2, 0)(topo), lo, hi, false},
		{"stretch reaching into the own cluster", s, leaf(1, 0)(topo), 0, hi, false},
		{"empty stretch", s, tor(0, 0)(topo), lo, lo, false},
		{"configured fleet", NewSynth(topo, map[topology.DeviceID]*DeviceConfig{topo.Spines()[0]: {MaxECMPPaths: 1}}), tor(0, 0)(topo), lo, hi, false},
	} {
		if _, ok := tc.s.RunClass(tc.d, tc.lo, tc.hi); ok != tc.ok {
			t.Errorf("%s: classed %v, want %v", tc.name, ok, tc.ok)
		}
	}
	if c, _ := s.RunClass(tor(0, 0)(topo), lo, hi); c != (fib.RunClass{Role: topology.RoleToR, Group: 0, Bits: 0b11}) {
		t.Errorf("healthy ToR of cluster 0: class %+v, want both planes live", c)
	}
}

// TestHomeIsTheToRsCluster: a full check classes a ToR outside its own
// cluster, whose stretch RunClass vouches for on both sides, and merges
// every other role whole.
func TestHomeIsTheToRsCluster(t *testing.T) {
	topo := classFleet()
	s := NewSynth(topo, nil)
	d := tor(1, 2)(topo)
	lo, hi, ok := s.Home(d)
	if clo, chi := s.clusterSpan(1); !ok || lo != clo || hi != chi {
		t.Fatalf("ToR of cluster 1: home [%d,%d) ok=%v, want its cluster [%d,%d)", lo, hi, ok, clo, chi)
	}
	for _, st := range [][2]int{{0, lo}, {hi, len(s.RunPrefixes())}} {
		if _, ok := s.RunClass(d, st[0], st[1]); !ok {
			t.Errorf("ToR of cluster 1: no class over [%d,%d), outside its home", st[0], st[1])
		}
	}
	for _, d := range []topology.DeviceID{leaf(1, 0)(topo), topo.Spines()[0], topo.RegionalSpines()[0]} {
		if _, _, ok := s.Home(d); ok {
			t.Errorf("%s: has a home, want it merged whole", topo.Device(d).Name)
		}
	}
}

func tor(c, i int) func(*topology.Topology) topology.DeviceID {
	return func(t *topology.Topology) topology.DeviceID { return t.ClusterToRs(c)[i] }
}

func leaf(c, plane int) func(*topology.Topology) topology.DeviceID {
	return func(t *topology.Topology) topology.DeviceID { return t.ClusterLeaves(c)[plane] }
}
