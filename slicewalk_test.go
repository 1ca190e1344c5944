package dcvalidate

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/experiments"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// TestSliceWalkMatchesSnapshot: a slice walk — over a synth whose state
// RefreshDelta keeps up to date from the journal, as the engine's /reach
// and global intent walk it, its runs cut to the walked prefix — answers
// every (ToR, prefix) pair as the snapshot checker over a fresh synth does:
// the same PairResult and the same counterexample path, on faulted,
// session-shut and configured fleets of 136 and 520 devices, and again
// after a sequence of three flips — after each flip at 136 devices, after
// the last at 520. At 136 devices every pair's counterexample search is
// compared, and a walk over a fresh synth too; at 520 the searches of the
// pairs that fail, which are those /reach runs it for. -short keeps the
// 136-device fleets.
func TestSliceWalkMatchesSnapshot(t *testing.T) {
	sizes := []int{136, 520}
	if testing.Short() {
		sizes = sizes[:1]
	}
	fleets := []struct {
		name  string
		fault func(topo *topology.Topology, cfg map[DeviceID]*DeviceConfig, rng *rand.Rand)
	}{
		{"faulted", func(topo *topology.Topology, _ map[DeviceID]*DeviceConfig, rng *rand.Rand) {
			// One ToR cut off from every leaf, so pairs toward it fail.
			for _, l := range topo.LinksOf(topo.ToRs()[0]) {
				topo.SetLinkUp(l, false)
			}
			for range 6 {
				topo.SetLinkUp(topology.LinkID(rng.Intn(len(topo.Links))), false)
			}
		}},
		{"session-shut", func(topo *topology.Topology, _ map[DeviceID]*DeviceConfig, rng *rand.Rand) {
			for _, l := range topo.LinksOf(topo.ToRs()[1]) {
				topo.SetSessionUp(l, false)
			}
			for range 8 {
				topo.SetSessionUp(topology.LinkID(rng.Intn(len(topo.Links))), false)
			}
		}},
		{"configured", func(topo *topology.Topology, cfg map[DeviceID]*DeviceConfig, rng *rand.Rand) {
			leaves, tors := topo.Leaves(), topo.ToRs()
			set := func(d DeviceID, c *DeviceConfig) {
				cfg[d] = c
				topo.NoteDeviceChanged(d)
			}
			set(leaves[rng.Intn(len(leaves))], &DeviceConfig{RejectDefaultIn: true})
			set(leaves[rng.Intn(len(leaves))], &DeviceConfig{SessionsDisabled: true})
			set(tors[rng.Intn(len(tors))], &DeviceConfig{MaxECMPPaths: 1})
			set(tors[rng.Intn(len(tors))], &DeviceConfig{SessionsDisabled: true})
			set(topo.ClusterLeaves(1)[0], &DeviceConfig{ASNOverride: topo.Device(topo.ClusterLeaves(0)[0]).ASN})
			topo.SetLinkUp(topology.LinkID(rng.Intn(len(topo.Links))), false)
		}},
	}
	for _, n := range sizes {
		for fi, fleet := range fleets {
			t.Run(fmt.Sprintf("%d/%s", n, fleet.name), func(t *testing.T) {
				topo := topology.MustNew(experiments.SizedParams("slice", n))
				cfg := map[DeviceID]*DeviceConfig{}
				maintained := bgp.NewSynth(topo, cfg)
				rng := rand.New(rand.NewSource(int64(n + fi)))
				fleet.fault(topo, cfg, rng)
				compareSliceWalk(t, topo, cfg, maintained, "broken")
				for i := range 3 {
					l := topology.LinkID(rng.Intn(len(topo.Links)))
					if i%2 == 0 {
						topo.SetLinkUp(l, !topo.Link(l).Up)
					} else {
						topo.SetSessionUp(l, !topo.Link(l).SessionUp)
					}
					if n < 200 || i == 2 {
						compareSliceWalk(t, topo, cfg, maintained, fmt.Sprintf("flip %d of link %d", i, l))
					}
				}
			})
		}
	}
}

func compareSliceWalk(t *testing.T, topo *topology.Topology, cfg map[DeviceID]*DeviceConfig, maintained *bgp.Synth, step string) {
	t.Helper()
	small := len(topo.Devices) < 200
	if maintained.Generation() != topo.Generation() {
		maintained.RefreshDelta()
	}
	snap, err := rcdc.NewGlobalChecker(topo, bgp.NewSynth(topo, cfg))
	if err != nil {
		t.Fatal(err)
	}
	walks := map[string]*rcdc.GlobalChecker{"maintained": rcdc.NewSliceChecker(topo, maintained)}
	if small {
		walks["fresh"] = rcdc.NewSliceChecker(topo, bgp.NewSynth(topo, cfg))
	}
	failing := 0
	for _, hp := range topo.HostedPrefixes() {
		for _, src := range topo.ToRs() {
			want := snap.CheckPair(src, hp)
			for name, g := range walks {
				if got := g.CheckPair(src, hp); got != want {
					t.Fatalf("%s: %s walk %s → %v: %+v, snapshot %+v", step, name, topo.Device(src).Name, hp.Prefix, got, want)
				}
			}
			if want.Reaches && !want.Dropped && !small {
				continue
			}
			wantPath, wantWhy, wantOK := snap.CounterexamplePath(src, hp)
			if wantOK {
				failing++
			}
			for name, g := range walks {
				path, why, ok := g.CounterexamplePath(src, hp)
				if ok != wantOK || why != wantWhy || !slices.Equal(path, wantPath) {
					t.Fatalf("%s: %s walk %s → %v: counterexample %v %q %v, snapshot %v %q %v",
						step, name, topo.Device(src).Name, hp.Prefix, path, why, ok, wantPath, wantWhy, wantOK)
				}
			}
		}
	}
	for name, g := range walks {
		if got, want := g.Check(rcdc.FullRedundancy), snap.Check(rcdc.FullRedundancy); !slices.Equal(got, want) {
			t.Fatalf("%s: %s walk's all-pairs check finds %d failures, snapshot %d", step, name, len(got), len(want))
		}
	}
	t.Logf("%s: %d pairs with a counterexample", step, failing)
}
