package dcvalidate

import (
	"fmt"
	"runtime"
	"testing"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/experiments"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/pec"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// The steady state of a monitoring loop is the same healthy fleet swept
// over and over. With pre-pulled tables, a memoized contract generator,
// and the sequential scratch-backed ValidateAll path, that sweep must not
// allocate at all — for the trie engine and for the PEC engine — which is
// what keeps full-fleet re-validation cheap enough to run continuously.
// TestValidateAllSteadyStateZeroAlloc asserts 0 allocs/op and
// BenchmarkValidateAllSteadyState reports it (the make bench-smoke
// -benchmem gate).

// memSource serves pre-pulled, pre-indexed tables: the steady-state
// fixture where pull cost and lazy index builds are already paid.
type memSource map[topology.DeviceID]*fib.Table

func (m memSource) Table(id topology.DeviceID) (*fib.Table, error) {
	tbl, ok := m[id]
	if !ok {
		return nil, fmt.Errorf("dcvalidate: no table for device %d", id)
	}
	return tbl, nil
}

// steadyFixture pulls every Figure 3 table once, pre-builds each table's
// prefix index, and returns a memoizing generator with every contract set
// pre-generated — the warmed-up world a long-running validator lives in.
func steadyFixture(tb testing.TB) (*metadata.Facts, memSource, *contracts.Generator) {
	tb.Helper()
	topo := topology.MustNew(topology.Figure3Params())
	facts := metadata.FromTopology(topo)
	synth := bgp.NewSynth(topo, nil)
	src := make(memSource, len(topo.Devices))
	for i := range topo.Devices {
		id := topo.Devices[i].ID
		tbl, err := synth.Table(id)
		if err != nil {
			tb.Fatal(err)
		}
		tbl.Index() // pre-build the lazy index
		src[id] = tbl
	}
	gen := contracts.NewGenerator(facts)
	gen.EnableMemo()
	for i := range topo.Devices {
		gen.ForDevice(topo.Devices[i].ID)
	}
	return facts, src, gen
}

// steadyEngines are the engines under the zero-alloc gate. Metrics and
// Tracer stay nil on the validators: instrumentation is allowed to
// allocate, the validation path is not. PEC runs as both checkers the
// engine keeps: the default one and pec-private, which carries the
// exact-ECMP-set requirement — each with its own per-device cache.
func steadyEngines() []struct {
	name    string
	checker rcdc.Checker
} {
	return []struct {
		name    string
		checker rcdc.Checker
	}{
		{"trie", rcdc.TrieChecker{}},
		{"pec", &pec.Checker{}},
		{"pec-private", &pec.Checker{Exact: true}},
	}
}

func warmSteady(tb testing.TB, v *rcdc.Validator, facts *metadata.Facts, src memSource) {
	tb.Helper()
	for i := 0; i < 2; i++ { // warm scratch growth, pools, PEC caches
		rep, err := v.ValidateAll(facts, src)
		if err != nil {
			tb.Fatal(err)
		}
		if rep.Failures != 0 {
			tb.Fatalf("warmup: %d failures on a healthy fleet", rep.Failures)
		}
	}
}

func TestValidateAllSteadyStateZeroAlloc(t *testing.T) {
	facts, src, gen := steadyFixture(t)
	for _, e := range steadyEngines() {
		e := e
		t.Run(e.name, func(t *testing.T) {
			v := &rcdc.Validator{Checker: e.checker, Workers: 1, Contracts: gen, Scratch: &rcdc.Scratch{}}
			warmSteady(t, v, facts, src)
			var failures int
			allocs := testing.AllocsPerRun(100, func() {
				rep, err := v.ValidateAll(facts, src)
				if err != nil {
					panic(err)
				}
				failures += rep.Failures
			})
			if failures != 0 {
				t.Fatalf("steady-state sweeps reported %d failures", failures)
			}
			if allocs != 0 {
				t.Errorf("steady-state ValidateAll allocates %.1f times per sweep, want 0", allocs)
			}
		})
	}
}

func BenchmarkValidateAllSteadyState(b *testing.B) {
	for _, e := range steadyEngines() {
		e := e
		b.Run(e.name, func(b *testing.B) {
			facts, src, gen := steadyFixture(b)
			v := &rcdc.Validator{Checker: e.checker, Workers: 1, Contracts: gen, Scratch: &rcdc.Scratch{}}
			warmSteady(b, v, facts, src)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.ValidateAll(facts, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The cold sweep is the other end: nothing pre-pulled, nothing memoized —
// every table synthesized, indexed and checked against freshly generated
// contracts, which is what the facade's default Validate does. The gates
// are mallocs per contract checked and mallocs per device as the fleet
// grows.

// coldSweep runs one from-scratch ValidateAll of a healthy fleet and
// returns the number of contracts it checked.
func coldSweep(tb testing.TB, topo *topology.Topology, facts *metadata.Facts) int {
	v := rcdc.Validator{Workers: 1}
	rep, err := v.ValidateAll(facts, bgp.NewSynth(topo, nil))
	if err != nil {
		tb.Fatal(err)
	}
	if rep.Failures != 0 {
		tb.Fatalf("%d failures on a healthy fleet", rep.Failures)
	}
	return rep.Checked
}

// TestValidateAllColdAllocCeiling locks the cold sweep's allocation diet.
// Per contract, on a 136-device fleet: 0.098 mallocs and 7.8 bytes per
// contract checked when written (2.2 mallocs before next-hop sets were
// shared, contracts generated into one buffer per worker and the
// per-table trie replaced by one sorted index; 0.50 mallocs and 70 bytes
// before tables and contracts were checked as runs; 0.29 and 11.5 before
// runs were derived once per class and contracts located by search). The
// ceilings are 1.5x that. Per device, which a per-contract figure hides: a
// device pays for its runs, not for the fleet's prefix count, so a
// 2008-device fleet may cost at most 1.15x the 136-device fleet's mallocs
// per device (7.8 against 7.8 when written; 27.9 against 22.9 when a
// device's runs were derived per block and per own-cluster prefix and its
// contracts found by a scan of every prefix), and at most 12.
func TestValidateAllColdAllocCeiling(t *testing.T) {
	perDevice := map[int]float64{}
	for _, n := range []int{136, 2008} {
		topo := topology.MustNew(experiments.SizedParams("cold", n))
		facts := metadata.FromTopology(topo)
		checked := coldSweep(t, topo, facts)
		allocs := testing.AllocsPerRun(5, func() { coldSweep(t, topo, facts) })
		perDevice[n] = allocs / float64(len(topo.Devices))
		t.Logf("%d devices: %.0f mallocs, %.2f per device, %.3f per contract", len(topo.Devices), allocs, perDevice[n], allocs/float64(checked))
		if n != 136 {
			continue
		}
		if per := allocs / float64(checked); per > 0.15 {
			t.Errorf("cold sweep: %.0f mallocs for %d contracts = %.2f per contract, ceiling 0.15", allocs, checked, per)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			coldSweep(t, topo, facts)
		}
		runtime.ReadMemStats(&after)
		if per := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(checked); per > 12 {
			t.Errorf("cold sweep: %.1f bytes per contract, ceiling 12", per)
		}
	}
	if small, large := perDevice[136], perDevice[2008]; large > 1.15*small || large > 12 {
		t.Errorf("cold sweep: %.2f mallocs per device at 2008 devices against %.2f at 136: ceilings 1.15x that (%.2f) and 12",
			large, small, 1.15*small)
	}
}

func BenchmarkValidateAllCold(b *testing.B) {
	for _, n := range []int{136, 2008} {
		b.Run(fmt.Sprintf("devices=%d", n), func(b *testing.B) {
			topo := topology.MustNew(experiments.SizedParams("cold", n))
			facts := metadata.FromTopology(topo)
			checked := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				checked += coldSweep(b, topo, facts)
			}
			b.ReportMetric(float64(checked)/float64(b.N), "contracts/op")
		})
	}
}
