package rcdc

import (
	"bytes"
	"sync"
	"testing"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/topology"
)

// TestValidatorRaceStress hammers one Validator — high worker count, a
// small topology so runs are short and frequent — from many goroutines
// interleaving ValidateAll and ValidateDelta against a shared cached
// synth, a shared memoizing contract generator, and a shared metrics
// registry and tracer, while other goroutines concurrently read the
// registry's exposition. Its job is to give `make test-race` (which runs
// with -short, so no skip here) a workload covering every shared
// structure the observability layer added; correctness of the results is
// locked by a final deterministic counter check.
func TestValidatorRaceStress(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 2, ToRsPerCluster: 3, LeavesPerCluster: 2,
		SpinesPerPlane: 1, RegionalSpines: 2, RSLinksPerSpine: 1,
		PrefixesPerToR: 1,
	})
	facts := metadata.FromTopology(topo)

	reg := obs.NewRegistry()
	gen := contracts.NewGenerator(facts)
	gen.EnableMemo()
	synth := bgp.NewSynth(topo, nil)
	synth.Metrics = bgp.NewMetrics(reg)

	v := &Validator{Workers: 16, Metrics: NewMetrics(reg), Tracer: obs.NewTracer(nil, 64)}
	prev, err := v.ValidateAll(facts, synth)
	if err != nil {
		t.Fatal(err)
	}
	dirty := []topology.DeviceID{topo.ToRs()[0], topo.ToRs()[1], topo.ClusterLeaves(0)[0]}

	const goroutines, iters = 8, 4
	fullRuns, deltaRuns := 0, 0
	for g := 0; g < goroutines; g++ {
		for i := 0; i < iters; i++ {
			if (g+i)%2 == 0 {
				fullRuns++
			} else {
				deltaRuns++
			}
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if (g+i)%2 == 0 {
					if _, err := v.ValidateAll(facts, synth); err != nil {
						t.Error(err)
					}
				} else {
					rep, err := v.ValidateDelta(prev, facts, gen, synth, dirty)
					if err != nil {
						t.Error(err)
					} else if len(rep.Devices) != len(prev.Devices) {
						t.Errorf("delta report covers %d devices, want %d",
							len(rep.Devices), len(prev.Devices))
					}
				}
				// Read the shared registry and tracer while runs are in
				// flight: the exposition path takes the same locks the
				// recording path does.
				var buf bytes.Buffer
				if err := reg.WritePrometheus(&buf); err != nil {
					t.Error(err)
				}
				v.Tracer.Spans()
			}
		}(g)
	}
	wg.Wait()

	wantDevices := float64((1+fullRuns)*len(topo.Devices) + deltaRuns*len(dirty))
	for _, s := range reg.Snapshot() {
		if s.Name == "dcv_rcdc_devices_checked_total" {
			if s.Value != wantDevices {
				t.Fatalf("devices_checked_total = %v, want %v", s.Value, wantDevices)
			}
			return
		}
	}
	t.Fatal("dcv_rcdc_devices_checked_total missing from snapshot")
}
