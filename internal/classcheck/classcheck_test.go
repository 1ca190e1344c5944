package classcheck

import (
	"testing"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/topology"
)

// dropPlane is a Classer that forgets one plane of every ToR's direct
// mask: a ToR that lost its link on that plane and a healthy one of its
// cluster share a class they should not.
type dropPlane struct {
	*bgp.Synth
	plane int
}

func (c dropPlane) RunClass(d topology.DeviceID, lo, hi int) (fib.RunClass, bool) {
	class, ok := c.Synth.RunClass(d, lo, hi)
	if class.Role == topology.RoleToR {
		class.Bits &^= 1 << c.plane
	}
	return class, ok
}

// TestCheckCatchesAMaskMissingAPlane is the gate's mutation check: with one
// ToR of cluster 1 cut off from its plane-1 leaf, the synthesizer's classes
// pass Check in the full-check mode (every device whole) and in the
// row-scoped mode (after a flip in cluster 0), and a Classer that drops
// plane 1 from the ToRs' masks fails both.
func TestCheckCatchesAMaskMissingAPlane(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 2, RSLinksPerSpine: 2,
		PrefixesPerToR: 1,
	})
	topo.FailLink(topo.ClusterToRs(1)[0], topo.ClusterLeaves(1)[1])
	since := topo.Generation()
	topo.FailLink(topo.ClusterToRs(0)[0], topo.ClusterLeaves(0)[0])
	gen := contracts.NewGenerator(metadata.FromTopology(topo))
	full := delta.NewSet()
	full.MarkFull()
	scoped := delta.Since(topo, since, delta.Options{})
	if scoped.Full() {
		t.Fatal("one link failure planned a full sweep")
	}
	synth, fresh := bgp.NewSynth(topo, nil), bgp.NewSynth(topo, nil)
	for _, tc := range []struct {
		mode string
		ds   *delta.Set
	}{{"full", full}, {"scoped", scoped}} {
		classes, members, err := Check(topo, synth, fresh, gen, tc.ds)
		if err != nil {
			t.Fatalf("%s: the synthesizer's classes fail the gate: %v", tc.mode, err)
		}
		if members == 0 {
			t.Fatalf("%s: %d classes and no member: the gate exercised nothing", tc.mode, classes)
		}
		if _, _, err := Check(topo, dropPlane{synth, 1}, fresh, gen, tc.ds); err == nil {
			t.Fatalf("%s: classes that drop plane 1 from the ToRs' masks pass the gate", tc.mode)
		}
	}
}
