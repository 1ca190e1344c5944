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
// allocate, the validation path is not. The PEC engine runs twice: with
// the shared atom arena (its default — warm hits must stay zero-alloc
// even with shape state live) and with the pure per-device path.
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
		{"pec-private", &pec.Checker{DisableArena: true}},
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
// contracts, which is what the facade's default Validate does. Its cost is
// dominated by how much it allocates per (device × prefix), so the gate is
// mallocs per contract checked.

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

// TestValidateAllColdAllocCeiling locks the cold sweep's allocation diet on
// a 136-device fleet: 0.29 mallocs and 12.5 bytes per contract checked when
// written (2.2 mallocs before next-hop sets were shared, contracts
// generated into one buffer per worker and the per-table trie replaced by
// one sorted index; 0.50 mallocs and 70 bytes before tables and contracts
// were checked as runs), almost all of it per-device overhead that a
// larger fleet spreads thinner (0.017 mallocs and 0.7 bytes at 2008
// devices). The ceilings are 1.5x that.
func TestValidateAllColdAllocCeiling(t *testing.T) {
	topo := topology.MustNew(experiments.SizedParams("cold", 136))
	facts := metadata.FromTopology(topo)
	checked := coldSweep(t, topo, facts)
	allocs := testing.AllocsPerRun(5, func() { coldSweep(t, topo, facts) })
	if per := allocs / float64(checked); per > 0.43 {
		t.Errorf("cold sweep: %.0f mallocs for %d contracts = %.2f per contract, ceiling 0.43", allocs, checked, per)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		coldSweep(t, topo, facts)
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(checked); per > 19 {
		t.Errorf("cold sweep: %.1f bytes per contract, ceiling 19", per)
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
