package topology

import (
	"fmt"
	"reflect"
	"testing"

	"dcvalidate/internal/ipnet"
)

func TestFigure3Shape(t *testing.T) {
	topo := MustNew(Figure3Params())
	p := topo.Params
	if got, want := len(topo.ToRs()), 4; got != want {
		t.Errorf("ToRs = %d, want %d", got, want)
	}
	if got, want := len(topo.Leaves()), 8; got != want {
		t.Errorf("Leaves = %d, want %d", got, want)
	}
	if got, want := len(topo.Spines()), 4; got != want {
		t.Errorf("Spines = %d, want %d", got, want)
	}
	if got, want := len(topo.RegionalSpines()), 4; got != want {
		t.Errorf("RegionalSpines = %d, want %d", got, want)
	}
	if got := p.NumDevices(); got != len(topo.Devices) {
		t.Errorf("NumDevices = %d, actual %d", got, len(topo.Devices))
	}

	// Every ToR connects to all 4 leaves of its cluster and nothing else.
	for _, tor := range topo.ToRs() {
		nbrs := topo.Neighbors(tor)
		if len(nbrs) != 4 {
			t.Errorf("ToR %s has %d neighbors", topo.Device(tor).Name, len(nbrs))
		}
		for _, n := range nbrs {
			nd := topo.Device(n)
			if nd.Role != RoleLeaf || nd.Cluster != topo.Device(tor).Cluster {
				t.Errorf("ToR neighbor %s is %v cluster %d", nd.Name, nd.Role, nd.Cluster)
			}
		}
	}

	// Each leaf connects to its cluster's ToRs (2) plus one spine (its plane).
	for _, leaf := range topo.Leaves() {
		var tors, spines int
		for _, n := range topo.Neighbors(leaf) {
			switch topo.Device(n).Role {
			case RoleToR:
				tors++
			case RoleSpine:
				spines++
			default:
				t.Errorf("leaf neighbor of unexpected role")
			}
		}
		if tors != 2 || spines != 1 {
			t.Errorf("leaf %s: tors=%d spines=%d", topo.Device(leaf).Name, tors, spines)
		}
	}

	// Each spine connects to one leaf per cluster (2) plus 2 regional spines.
	for _, sp := range topo.Spines() {
		var leaves, rs int
		for _, n := range topo.Neighbors(sp) {
			switch topo.Device(n).Role {
			case RoleLeaf:
				leaves++
			case RoleRegionalSpine:
				rs++
			}
		}
		if leaves != 2 || rs != 2 {
			t.Errorf("spine %s: leaves=%d rs=%d", topo.Device(sp).Name, leaves, rs)
		}
	}

	// Figure 3: spine 0 (D1) connects to regional spines 0 and 2 (R1, R3).
	d1 := topo.Spines()[0]
	var rsIdx []int
	for _, n := range topo.Neighbors(d1) {
		if nd := topo.Device(n); nd.Role == RoleRegionalSpine {
			rsIdx = append(rsIdx, nd.Index)
		}
	}
	if len(rsIdx) != 2 || rsIdx[0] != 0 || rsIdx[1] != 2 {
		t.Errorf("spine 0 RS neighbors = %v, want [0 2]", rsIdx)
	}
}

func TestASNScheme(t *testing.T) {
	topo := MustNew(Params{
		Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 2, RSLinksPerSpine: 1,
	})
	// All spines share one ASN.
	spineASN := topo.Device(topo.Spines()[0]).ASN
	for _, s := range topo.Spines() {
		if topo.Device(s).ASN != spineASN {
			t.Error("spine ASNs differ")
		}
	}
	// Leaves share an ASN within a cluster; clusters differ.
	for c := 0; c < 3; c++ {
		ls := topo.ClusterLeaves(c)
		for _, l := range ls {
			if topo.Device(l).ASN != topo.Device(ls[0]).ASN {
				t.Error("leaf ASNs differ within cluster")
			}
		}
	}
	if topo.Device(topo.ClusterLeaves(0)[0]).ASN == topo.Device(topo.ClusterLeaves(1)[0]).ASN {
		t.Error("leaf ASNs equal across clusters")
	}
	// ToR ASNs unique within a cluster, reused across clusters.
	c0 := topo.ClusterToRs(0)
	seen := map[uint32]bool{}
	for _, id := range c0 {
		asn := topo.Device(id).ASN
		if seen[asn] {
			t.Error("duplicate ToR ASN within cluster")
		}
		seen[asn] = true
	}
	c1 := topo.ClusterToRs(1)
	for i := range c0 {
		if topo.Device(c0[i]).ASN != topo.Device(c1[i]).ASN {
			t.Error("ToR ASNs not reused across clusters")
		}
	}
}

func TestHostedPrefixes(t *testing.T) {
	topo := MustNew(Params{
		Clusters: 2, ToRsPerCluster: 2, LeavesPerCluster: 2,
		SpinesPerPlane: 1, RegionalSpines: 1, RSLinksPerSpine: 1,
		PrefixesPerToR: 3,
	})
	hps := topo.HostedPrefixes()
	if len(hps) != 2*2*3 {
		t.Fatalf("HostedPrefixes = %d", len(hps))
	}
	// All prefixes distinct /24s inside 10/8.
	seen := map[ipnet.Prefix]bool{}
	ten := ipnet.MustParsePrefix("10.0.0.0/8")
	for _, hp := range hps {
		if seen[hp.Prefix] {
			t.Errorf("duplicate prefix %v", hp.Prefix)
		}
		seen[hp.Prefix] = true
		if hp.Prefix.Bits != 24 || !ten.ContainsPrefix(hp.Prefix) {
			t.Errorf("prefix %v not a /24 in 10/8", hp.Prefix)
		}
		if topo.Device(hp.ToR).Cluster != hp.Cluster {
			t.Errorf("cluster mismatch for %v", hp.Prefix)
		}
	}
}

// TestHostedPrefixesListedOnce: the list is New's, handed out without a
// copy, and it follows the ToRs' own prefixes through a swap.
func TestHostedPrefixesListedOnce(t *testing.T) {
	topo := MustNew(Params{
		Clusters: 2, ToRsPerCluster: 3, LeavesPerCluster: 2,
		SpinesPerPlane: 1, RegionalSpines: 1, RSLinksPerSpine: 1,
		PrefixesPerToR: 2,
	})
	if allocs := testing.AllocsPerRun(10, func() { topo.HostedPrefixes() }); allocs != 0 {
		t.Errorf("HostedPrefixes allocates %.0f times per call, want 0", allocs)
	}
	derived := func() []HostedPrefix {
		var out []HostedPrefix
		for _, id := range topo.ToRs() {
			d := topo.Device(id)
			for _, p := range d.HostedPrefixes {
				out = append(out, HostedPrefix{Prefix: p, ToR: id, Cluster: d.Cluster})
			}
		}
		return out
	}
	if got, want := topo.HostedPrefixes(), derived(); !reflect.DeepEqual(got, want) {
		t.Fatalf("HostedPrefixes = %v, want %v", got, want)
	}
	before := topo.HostedPrefixes()[0]
	topo.SwapHostedPrefixes(topo.ToRs()[0], topo.ToRs()[4])
	if got, want := topo.HostedPrefixes(), derived(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a swap HostedPrefixes = %v, want %v", got, want)
	}
	if got := topo.HostedPrefixes()[0]; got.Prefix == before.Prefix || got.ToR != before.ToR {
		t.Errorf("after a swap the first ToR lists %v, had %v", got, before)
	}
}

// TestLinkALowerTier: every link runs from its lower-tier end A up to B,
// one tier apart — what readers splitting uplinks from downlinks rely on.
func TestLinkALowerTier(t *testing.T) {
	topo := MustNew(Figure3Params())
	for i := range topo.Links {
		l := &topo.Links[i]
		if a, b := topo.Device(l.A).Role, topo.Device(l.B).Role; b != a+1 {
			t.Errorf("link %d runs %s → %s", l.ID, a, b)
		}
	}
}

func TestLinkStateAndFailures(t *testing.T) {
	topo := MustNew(Figure3Params())
	tor := topo.ToRs()[0]
	leaf := topo.ClusterLeaves(0)[2]
	if !topo.FailLink(tor, leaf) {
		t.Fatal("FailLink found no link")
	}
	l, _ := topo.LinkBetween(tor, leaf)
	if l.Live() {
		t.Error("failed link still live")
	}
	if got := len(topo.LiveNeighbors(tor)); got != 3 {
		t.Errorf("LiveNeighbors after failure = %d, want 3", got)
	}
	if !topo.ShutSession(tor, topo.ClusterLeaves(0)[3]) {
		t.Fatal("ShutSession found no link")
	}
	if got := len(topo.LiveNeighbors(tor)); got != 2 {
		t.Errorf("LiveNeighbors after shut = %d, want 2", got)
	}
	topo.RestoreAll()
	if got := len(topo.LiveNeighbors(tor)); got != 4 {
		t.Errorf("LiveNeighbors after restore = %d, want 4", got)
	}
	// No link between two ToRs.
	if topo.FailLink(topo.ToRs()[0], topo.ToRs()[1]) {
		t.Error("FailLink invented a ToR-ToR link")
	}
}

// TestLinkBetweenMatchesScan: the arithmetic lookup finds, for every
// ordered pair of devices (and IDs out of range), exactly the link a scan
// of Links finds, over shapes that vary every tier count.
func TestLinkBetweenMatchesScan(t *testing.T) {
	for _, p := range []Params{
		Figure3Params(),
		{Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2, SpinesPerPlane: 3, RegionalSpines: 6, RSLinksPerSpine: 2},
		{Clusters: 2, ToRsPerCluster: 1, LeavesPerCluster: 3, SpinesPerPlane: 1, RegionalSpines: 3, RSLinksPerSpine: 3},
		{Clusters: 1, ToRsPerCluster: 5, LeavesPerCluster: 1, SpinesPerPlane: 4, RegionalSpines: 4, RSLinksPerSpine: 1, PrefixesPerToR: 2},
	} {
		topo := MustNew(p)
		want := make(map[[2]DeviceID]LinkID)
		for _, l := range topo.Links {
			want[[2]DeviceID{l.A, l.B}] = l.ID
			want[[2]DeviceID{l.B, l.A}] = l.ID
		}
		n := DeviceID(len(topo.Devices))
		for a := None; a <= n; a++ {
			for b := None; b <= n; b++ {
				l, ok := topo.LinkBetween(a, b)
				id, exists := want[[2]DeviceID{a, b}]
				switch {
				case ok != exists:
					t.Fatalf("%+v: LinkBetween(%d, %d) found=%v, scan found=%v", p, a, b, ok, exists)
				case ok && l.ID != id:
					t.Fatalf("%+v: LinkBetween(%d, %d) = link %d, scan says %d", p, a, b, l.ID, id)
				}
			}
		}
	}
}

func TestInterfaceAddrs(t *testing.T) {
	topo := MustNew(Figure3Params())
	for i := range topo.Links {
		l := &topo.Links[i]
		if l.AddrB != l.AddrA+1 {
			t.Fatalf("link %d addrs not a /31 pair", i)
		}
		da, ok := topo.DeviceByAddr(l.AddrA)
		if !ok || da != l.A {
			t.Fatalf("DeviceByAddr(A) = %v,%v", da, ok)
		}
		db, ok := topo.DeviceByAddr(l.AddrB)
		if !ok || db != l.B {
			t.Fatalf("DeviceByAddr(B) = %v,%v", db, ok)
		}
		// Peer returns the far end.
		pd, pa := l.Peer(l.A)
		if pd != l.B || pa != l.AddrB {
			t.Fatal("Peer(A) wrong")
		}
	}
	if _, ok := topo.DeviceByAddr(ipnet.MustParseAddr("1.2.3.4")); ok {
		t.Error("DeviceByAddr matched unrelated address")
	}
}

func TestByName(t *testing.T) {
	topo := MustNew(Figure3Params())
	d, ok := topo.ByName("fig3-c0-t0-1")
	if !ok || d.Role != RoleToR || d.Cluster != 0 || d.Index != 1 {
		t.Errorf("ByName = %+v, %v", d, ok)
	}
	if _, ok := topo.ByName("nope"); ok {
		t.Error("ByName matched missing device")
	}
	// Every tier's name pattern, with multi-digit positions, and every name
	// finds its own device.
	topo = MustNew(Params{
		Name: "big", Clusters: 12, ToRsPerCluster: 11, LeavesPerCluster: 10,
		SpinesPerPlane: 11, RegionalSpines: 12, RSLinksPerSpine: 1,
	})
	for i := range topo.Devices {
		d := &topo.Devices[i]
		var want string
		switch d.Role {
		case RoleToR:
			want = fmt.Sprintf("big-c%d-t0-%d", d.Cluster, d.Index)
		case RoleLeaf:
			want = fmt.Sprintf("big-c%d-t1-%d", d.Cluster, d.Index)
		case RoleSpine:
			want = fmt.Sprintf("big-t2-p%d-%d", d.Plane, d.Index)
		default:
			want = fmt.Sprintf("big-rs-%d", d.Index)
		}
		if d.Name != want {
			t.Fatalf("device %d is named %q, want %q", d.ID, d.Name, want)
		}
		if got, ok := topo.ByName(want); !ok || got.ID != d.ID {
			t.Fatalf("ByName(%q) = %v, %v", want, got, ok)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{},
		{Clusters: 1, ToRsPerCluster: 1, LeavesPerCluster: 1, SpinesPerPlane: 1, RegionalSpines: 2, RSLinksPerSpine: 3},
		{Clusters: 1, ToRsPerCluster: 1, LeavesPerCluster: 1, SpinesPerPlane: 1, RegionalSpines: 3, RSLinksPerSpine: 2},
		{Clusters: 300, ToRsPerCluster: 300, LeavesPerCluster: 1, SpinesPerPlane: 1, RegionalSpines: 1, RSLinksPerSpine: 1, PrefixesPerToR: 4},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := New(Params{Clusters: 0}); err == nil {
		t.Error("New accepted bad params")
	}
}

func TestLargeTopologyScales(t *testing.T) {
	// ~1k devices generate instantly and with consistent link counts.
	p := Params{
		Clusters: 16, ToRsPerCluster: 40, LeavesPerCluster: 8,
		SpinesPerPlane: 4, RegionalSpines: 8, RSLinksPerSpine: 4,
	}
	topo := MustNew(p)
	wantLinks := 16*40*8 + // ToR-leaf
		16*8*4 + // leaf-spine
		8*4*4 // spine-RS
	if len(topo.Links) != wantLinks {
		t.Errorf("links = %d, want %d", len(topo.Links), wantLinks)
	}
	if p.NumDevices() != len(topo.Devices) {
		t.Errorf("NumDevices mismatch")
	}
}
