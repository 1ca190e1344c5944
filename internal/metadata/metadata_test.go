package metadata

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"dcvalidate/internal/topology"
)

func TestFromTopology(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	f := FromTopology(topo)
	if f.Datacenter != "fig3" {
		t.Errorf("Datacenter = %q", f.Datacenter)
	}
	if len(f.Devices) != len(topo.Devices) {
		t.Fatalf("devices = %d", len(f.Devices))
	}
	if len(f.Prefixes) != 4 {
		t.Fatalf("prefixes = %d", len(f.Prefixes))
	}

	// ToR facts: 4 uplinks (leaves), no downlinks, one hosted prefix.
	tor := f.Device(topo.ToRs()[0])
	if len(tor.Uplinks) != 4 || len(tor.Downlinks) != 0 || len(tor.HostedPrefixes) != 1 {
		t.Errorf("ToR facts: up=%d down=%d hosted=%d",
			len(tor.Uplinks), len(tor.Downlinks), len(tor.HostedPrefixes))
	}
	for _, u := range tor.Uplinks {
		if p := f.Device(u.Device); p.Role != topology.RoleLeaf || p.Cluster != 0 {
			t.Errorf("ToR uplink = %+v, peer %+v", u, p)
		}
	}

	// Leaf facts: 1 uplink (spine), 2 downlinks (ToRs).
	leaf := f.Device(topo.ClusterLeaves(0)[0])
	if len(leaf.Uplinks) != 1 || len(leaf.Downlinks) != 2 {
		t.Errorf("leaf facts: up=%d down=%d", len(leaf.Uplinks), len(leaf.Downlinks))
	}

	// Spine facts: 2 uplinks (RS), 2 downlinks (leaves).
	spine := f.Device(topo.Spines()[0])
	if len(spine.Uplinks) != 2 || len(spine.Downlinks) != 2 {
		t.Errorf("spine facts: up=%d down=%d", len(spine.Uplinks), len(spine.Downlinks))
	}

	// RS facts: downlinks only.
	rs := f.Device(topo.RegionalSpines()[0])
	if len(rs.Uplinks) != 0 || len(rs.Downlinks) == 0 {
		t.Errorf("rs facts: up=%d down=%d", len(rs.Uplinks), len(rs.Downlinks))
	}
}

func TestFactsIgnoreLinkState(t *testing.T) {
	// Contracts derive from expected topology (§2.4): failing links must
	// not change the metadata facts.
	topo := topology.MustNew(topology.Figure3Params())
	before := FromTopology(topo)
	topo.FailLink(topo.ToRs()[0], topo.ClusterLeaves(0)[0])
	topo.ShutSession(topo.ToRs()[0], topo.ClusterLeaves(0)[1])
	after := FromTopology(topo)
	if !reflect.DeepEqual(before.Devices, after.Devices) {
		t.Error("metadata changed with link state")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	f := FromTopology(topo)
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Datacenter != f.Datacenter ||
		!reflect.DeepEqual(back.Devices, f.Devices) ||
		!reflect.DeepEqual(back.Prefixes, f.Prefixes) {
		t.Error("JSON round trip changed facts")
	}
}

func TestReadJSONError(t *testing.T) {
	if _, err := ReadJSON(bytes.NewReader([]byte("{bad"))); err == nil {
		t.Error("ReadJSON accepted invalid input")
	}
}

func TestByNameAndClusterQueries(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	f := FromTopology(topo)
	d, ok := f.ByName("fig3-c1-t1-2")
	if !ok || d.Role != topology.RoleLeaf || d.Cluster != 1 {
		t.Errorf("ByName = %+v, %v", d, ok)
	}
	if _, ok := f.ByName("missing"); ok {
		t.Error("ByName matched missing device")
	}
	ps := f.PrefixesInCluster(1)
	if len(ps) != 2 {
		t.Errorf("PrefixesInCluster(1) = %d", len(ps))
	}
	for _, p := range ps {
		if p.Cluster != 1 {
			t.Errorf("wrong cluster in %+v", p)
		}
	}
}

// fleet builds the benchmark fleets' shape with the given clusters: per
// cluster 40 ToRs and 8 leaves, 8 planes of 4 spines, 8 regional spines —
// 520 devices at 10 clusters, 2008 at 41.
func fleet(clusters int) *topology.Topology {
	return topology.MustNew(topology.Params{
		Name: "dc", Clusters: clusters, ToRsPerCluster: 40, LeavesPerCluster: 8,
		SpinesPerPlane: 4, RegionalSpines: 8, RSLinksPerSpine: 4, PrefixesPerToR: 1,
	})
}

// TestFactsMatchTopology checks the facts of a faulted 520-device fleet
// against the topology they were read from: each device's neighbors are
// its adjacency as (device, peer address), split by role, in link order;
// every peer's name, role, cluster and ASN, read through the device table,
// are the topology device's; and the facts survive a JSON round trip.
func TestFactsMatchTopology(t *testing.T) {
	topo := fleet(10)
	if n := len(topo.Devices); n != 520 {
		t.Fatalf("fleet has %d devices, want 520", n)
	}
	for i := 0; i < len(topo.Links); i += 97 {
		if i%2 == 0 {
			topo.SetLinkUp(topology.LinkID(i), false)
		} else {
			topo.SetSessionUp(topology.LinkID(i), false)
		}
	}
	f := FromTopology(topo)
	if len(f.Devices) != len(topo.Devices) {
		t.Fatalf("facts list %d devices, topology %d", len(f.Devices), len(topo.Devices))
	}
	for i := range topo.Devices {
		d := &topo.Devices[i]
		df := f.Device(d.ID)
		if df.ID != d.ID || df.Name != d.Name || df.Role != d.Role || df.Cluster != d.Cluster || df.ASN != d.ASN ||
			!slices.Equal(df.HostedPrefixes, d.HostedPrefixes) {
			t.Fatalf("device %s: facts %+v", d.Name, df)
		}
		var up, down []Neighbor
		for _, lid := range topo.LinksOf(d.ID) {
			peer, addr := topo.Link(lid).Peer(d.ID)
			if topo.Device(peer).Role > d.Role {
				up = append(up, Neighbor{Device: peer, PeerAddr: addr})
			} else {
				down = append(down, Neighbor{Device: peer, PeerAddr: addr})
			}
		}
		if !slices.Equal(df.Uplinks, up) || !slices.Equal(df.Downlinks, down) {
			t.Fatalf("device %s: uplinks %v downlinks %v, want %v and %v", d.Name, df.Uplinks, df.Downlinks, up, down)
		}
		for _, nb := range append(slices.Clip(df.Uplinks), df.Downlinks...) {
			p, want := f.Device(nb.Device), topo.Device(nb.Device)
			if p.Name != want.Name || p.Role != want.Role || p.Cluster != want.Cluster || p.ASN != want.ASN {
				t.Fatalf("device %s: peer %+v, want %+v", d.Name, p, want)
			}
		}
	}
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, f) {
		t.Error("JSON round trip changed the facts")
	}
}

// TestFromTopologyAllocCeiling locks the facts build's allocation diet at
// 2008 devices: the devices, their neighbors, their hosted prefixes and
// the prefix list are one array each. Measured when written: 5 mallocs and
// 0.51 MB per build, against 1670 mallocs and 1.83 MB when each neighbor
// carried a copy of its peer's name, role, cluster and ASN and each ToR
// its own hosted-prefix slice.
func TestFromTopologyAllocCeiling(t *testing.T) {
	topo := fleet(41)
	if n := len(topo.Devices); n != 2008 {
		t.Fatalf("fleet has %d devices, want 2008", n)
	}
	allocs := testing.AllocsPerRun(5, func() { FromTopology(topo) })
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		FromTopology(topo)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%d devices: %.0f mallocs, %.2f MB per build", len(topo.Devices), allocs, per/(1<<20))
	if allocs > 32 {
		t.Errorf("FromTopology: %.0f mallocs per build, ceiling 32", allocs)
	}
	if per > 1<<20 {
		t.Errorf("FromTopology: %.2f MB per build, ceiling 1 MB", per/(1<<20))
	}
}
