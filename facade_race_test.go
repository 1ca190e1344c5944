package dcvalidate_test

import (
	"slices"
	"sync"
	"testing"

	"dcvalidate"
	"dcvalidate/internal/rcdc"
)

// TestFacadeConcurrentUse pins the facade's thread-safety contract:
// validations and serving-cache queries proceed concurrently with
// topology and configuration mutations without data races. The test is
// meaningful under -race (make test-race and the CI race job run it);
// without -race it still exercises the lock ordering for deadlocks.
func TestFacadeConcurrentUse(t *testing.T) {
	dc, err := dcvalidate.NewDatacenter(dcvalidate.TopologyParams{
		Clusters: 2, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 2, RSLinksPerSpine: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dc.Metrics() // instrument, so counters race-test too

	tor := dc.Topo.Device(dc.Topo.ClusterToRs(0)[0]).Name
	leaf := dc.Topo.Device(dc.Topo.ClusterLeaves(0)[0]).Name
	remote := dc.Topo.Device(dc.Topo.ClusterToRs(1)[0]).Name
	remoteLeaf := dc.Topo.Device(dc.Topo.ClusterLeaves(1)[0]).Name
	spine := dc.Topo.Device(dc.Topo.Spines()[0]).Name
	home := dc.Topo.Device(dc.Topo.ClusterToRs(0)[1]).Name

	const iters = 20
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				f(i)
			}
		}()
	}

	// Mutators: ToR–leaf and leaf–spine link flaps and config edits. They
	// share writes, which the intent checker takes alone to pin a
	// generation.
	var writes sync.RWMutex
	flap := func(a, b string) func(i int) {
		return func(i int) {
			writes.RLock()
			defer writes.RUnlock()
			if i%2 == 0 {
				if err := dc.FailLink(a, b); err != nil {
					t.Error(err)
				}
			} else if err := dc.RestoreLink(a, b); err != nil {
				t.Error(err)
			}
		}
	}
	run(flap(tor, leaf))
	run(flap(remoteLeaf, spine))
	run(func(i int) {
		writes.RLock()
		defer writes.RUnlock()
		if err := dc.SetDeviceConfig(leaf, nil); err != nil {
			t.Error(err)
		}
	})
	// Full and incremental validations.
	run(func(i int) {
		if _, err := dc.Validate(dcvalidate.ValidateOptions{Workers: 2}); err != nil {
			t.Error(err)
		}
	})
	run(func(i int) {
		if _, err := dc.ValidateDelta(nil, dcvalidate.ValidateOptions{Workers: 2}); err != nil {
			t.Error(err)
		}
	})
	// Serving-cache queries of every kind.
	run(func(i int) {
		if _, err := dc.QueryDevice(tor); err != nil {
			t.Error(err)
		}
	})
	// Two /reach readers, toward either cluster: their walks read shared
	// cached runs at once.
	run(func(i int) {
		if _, err := dc.QueryReach(tor, remote); err != nil {
			t.Error(err)
		}
	})
	run(func(i int) {
		if _, err := dc.QueryReach(remote, home); err != nil {
			t.Error(err)
		}
	})
	// The all-pairs intent walk: beside the writers on even iterations,
	// and on odd ones with the writers held off, where it must equal the
	// snapshot checker's over a fresh source at the same generation.
	run(func(i int) {
		if i%2 == 0 {
			if _, err := dc.CheckGlobalIntent(); err != nil {
				t.Error(err)
			}
			return
		}
		writes.Lock()
		defer writes.Unlock()
		got, err := dc.CheckGlobalIntent()
		if err != nil {
			t.Error(err)
			return
		}
		snap, err := rcdc.NewGlobalChecker(dc.Topo, dc.Source())
		if err != nil {
			t.Error(err)
			return
		}
		if want := snap.Check(rcdc.FullRedundancy); !slices.Equal(got, want) {
			t.Errorf("intent walk finds %d failing pairs, snapshot %d", len(got), len(want))
		}
	})
	run(func(i int) {
		if _, err := dc.Summary(); err != nil {
			t.Error(err)
		}
		if _, _, err := dc.QueryViolations(); err != nil {
			t.Error(err)
		}
	})
	// Swapping the default engine mid-flight drops the report cache.
	run(func(i int) {
		if i%2 == 0 {
			dc.SetDefaultEngine(dcvalidate.EnginePEC)
		} else {
			dc.SetDefaultEngine(dcvalidate.EngineTrie)
		}
	})
	wg.Wait()

	// The facade must still converge to a consistent healthy state.
	if err := dc.RestoreLink(tor, leaf); err != nil {
		t.Fatal(err)
	}
	dc.Topo.RestoreAll()
	if ans, err := dc.QueryReach(remote, home); err != nil || !ans.Reaches {
		t.Fatalf("restored fleet: reach %+v, %v", ans, err)
	}
	s, err := dc.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if s.Violating != 0 {
		t.Fatalf("restored fleet still violating: %+v", s)
	}
}
