// Command dcbench regenerates every experiment of the paper reproduction
// (see DESIGN.md's experiment index) and prints paper-style tables.
//
// Usage:
//
//	dcbench              # run all experiments at default scale
//	dcbench -e e2,e4     # run a subset (ids e1..e20, e4s, e7b, e13b, e13c)
//	dcbench -quick       # smaller parameter sweeps (CI-friendly)
//	dcbench -full        # include the 10^4-device E2 point (minutes)
//
// E4, E16, E17, E18, E19, and E20 additionally write their
// machine-readable rows to BENCH_solver.json, BENCH_incremental.json,
// BENCH_explore.json, BENCH_conflint.json, BENCH_serve.json, and
// BENCH_pec.json in the current directory; e4s is the CI solver-perf
// smoke (panics when the SMT engine regresses past a generous per-contract
// ceiling or disagrees with the trie engine); e17 carries its own panic
// gates (pruned-vs-brute divergence, pruning-ratio floor, minimal-set
// replay); e18 is the conflint detection gate (panics on clean-fleet false
// positives, a missed seeded misconfig class, report instability, or
// SMT/interval shadow disagreement); e20 gates the packet-equivalence-
// class engine (panics unless PEC reports — cold and warm — render
// byte-identically to the trie engine at every size, agree with the SMT
// engine on a per-role sample and, at the largest size, clear a 2x floor
// on warm PEC over cold PEC while trie warm stays <=1.5x cold — the make
// pec-smoke hook; warm trie over warm PEC is recorded, not gated). Every
// run records a
// per-experiment snapshot of the observability registry (validator,
// solver, and synth-cache series plus dcv_experiment_seconds) and writes
// them to -metrics-out as JSON: one entry per experiment holding the
// delta of every series that moved during it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"dcvalidate/internal/experiments"
	"dcvalidate/internal/obs"
)

// writeJSON serializes an experiment's machine-readable rows next to the
// human tables; dcbench exits non-zero when the artifact can't be
// written, matching the panic-on-error convention of the experiments.
func writeJSON(path string, rows any) {
	raw, err := json.MarshalIndent(rows, "", "  ")
	if err == nil {
		err = os.WriteFile(path, raw, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcbench: writing %s: %v\n", path, err)
		os.Exit(1)
	}
}

// phaseMetrics is one -metrics-out entry: the registry movement
// attributable to a single experiment.
type phaseMetrics struct {
	ID      string       `json:"id"`
	Samples []obs.Sample `json:"samples"`
}

func main() {
	var (
		only       = flag.String("e", "", "comma-separated experiment ids (e1..e16, e7b, e13b, e13c); empty = all")
		quick      = flag.Bool("quick", false, "reduced sweeps")
		full       = flag.Bool("full", false, "include the 10^4-device sweep point")
		metricsOut = flag.String("metrics-out", "BENCH_metrics.json", "write per-experiment metric snapshots to this file (empty = disabled)")
	)
	flag.Parse()

	// Effective-parallelism report up front so speedup columns can be read
	// in context; E2 raises GOMAXPROCS itself for its parallel leg.
	fmt.Printf("dcbench: %d host CPUs, GOMAXPROCS=%d\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if runtime.NumCPU() == 1 {
		fmt.Println("dcbench: WARNING: single-CPU host — parallel speedup columns will read ~1.0x")
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToLower(strings.TrimSpace(id))] = true
		}
	}
	run := func(id string) bool { return len(want) == 0 || want[strings.ToLower(id)] }

	e1Sizes := []int{1000, 2000, 4000}
	e2Sizes := []int{500, 1000, 2000, 5000}
	e3Sizes := []int{250, 500, 1000}
	e4Sizes := []int{500, 1000, 2000}
	e4sSize := 500
	e8Sizes := []int{100, 300, 1000, 3000, 5000}
	// E13's store holds every serialized table; 5000 devices (~20M rules)
	// is the single-instance ceiling for an in-memory store on a 16 GB
	// host. The paper's O(10K)-device instances use an external NoSQL
	// store; scale by adding instances (monitor.Service).
	e13Sizes := []int{1000, 2500, 5000}
	e16Sizes := []int{520, 1000, 2008}
	claim1Trials := 40
	// E17's 2-pod Clos: 8 ToRs per cluster is ~26k k=2 scenarios before
	// pruning; quick halves the pods' width.
	e17Tors := 8
	e18Sizes := []int{136, 520, 2008}
	e19Sizes := []int{520, 2008}
	e20Sizes := []int{520, 2008, 5080}
	if *quick {
		e1Sizes = []int{500, 1000}
		e2Sizes = []int{250, 500}
		e3Sizes = []int{250}
		e4Sizes = []int{250, 500}
		e4sSize = 250
		e8Sizes = []int{100, 300, 1000}
		e13Sizes = []int{500, 1000}
		e16Sizes = []int{520}
		claim1Trials = 10
		e17Tors = 4
		e18Sizes = []int{136}
		e19Sizes = []int{520}
		e20Sizes = []int{520}
	}
	if *full {
		e2Sizes = append(e2Sizes, 10000)
		e20Sizes = append(e20Sizes, 10160)
	}

	type exp struct {
		id string
		fn func() experiments.Result
	}
	all := []exp{
		{"e1", func() experiments.Result { return experiments.E1PerDevice(e1Sizes, 8) }},
		{"e2", func() experiments.Result { return experiments.E2Sweep(e2Sizes) }},
		{"e3", func() experiments.Result { return experiments.E3LocalVsGlobal(e3Sizes) }},
		{"e4", func() experiments.Result {
			res, rows := experiments.E4SMTVsTrie(e4Sizes)
			writeJSON("BENCH_solver.json", rows)
			return res
		}},
		{"e4s", func() experiments.Result {
			// Generous ceiling: the committed baseline sits around 200µs
			// per contract; 10ms trips only on an order-of-magnitude
			// regression, not on CI-runner noise.
			return experiments.E4SolverGate(e4sSize, 10*time.Millisecond)
		}},
		{"e5", experiments.E5Figure3},
		{"e6", experiments.E6Taxonomy},
		{"e7", experiments.E7Burndown},
		{"e7b", experiments.E7bPipelineBurndown},
		{"e8", func() experiments.Result { return experiments.E8ACLLatency(e8Sizes) }},
		{"e9", experiments.E9Refactor},
		{"e10", experiments.E10NSGIssues},
		{"e11", experiments.E11Firewall},
		{"e12", experiments.E12Precheck},
		{"e13", func() experiments.Result { return experiments.E13Monitor(e13Sizes) }},
		{"e13b", func() experiments.Result { return experiments.E13bIncremental(e13Sizes[0]) }},
		{"e13c", func() experiments.Result { return experiments.E13cDegraded(e13Sizes[0], 4) }},
		{"e14", func() experiments.Result { return experiments.E14Claim1(claim1Trials) }},
		{"e15", experiments.E15Region},
		{"e16", func() experiments.Result {
			res, rows := experiments.E16Incremental(e16Sizes)
			writeJSON("BENCH_incremental.json", rows)
			return res
		}},
		{"e17", func() experiments.Result {
			res, rows := experiments.E17Explore(e17Tors)
			writeJSON("BENCH_explore.json", rows)
			return res
		}},
		{"e18", func() experiments.Result {
			res, rows := experiments.E18Conflint(e18Sizes)
			writeJSON("BENCH_conflint.json", rows)
			return res
		}},
		{"e19", func() experiments.Result {
			res, rows := experiments.E19Serve(e19Sizes)
			writeJSON("BENCH_serve.json", rows)
			return res
		}},
		{"e20", func() experiments.Result {
			res, rows := experiments.E20PEC(e20Sizes)
			writeJSON("BENCH_pec.json", rows)
			return res
		}},
	}
	if *metricsOut != "" {
		experiments.Metrics = obs.NewRegistry()
	}
	ran := 0
	var phases []phaseMetrics
	prev := map[string]float64{}
	for _, e := range all {
		if !run(e.id) {
			continue
		}
		fmt.Println(experiments.Phase(e.id, e.fn))
		ran++
		if experiments.Metrics != nil {
			phases = append(phases, phaseMetrics{
				ID:      e.id,
				Samples: snapshotDelta(experiments.Metrics, prev),
			})
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "dcbench: no experiment matches %q\n", *only)
		os.Exit(2)
	}
	if *metricsOut != "" {
		raw, err := json.MarshalIndent(phases, "", "  ")
		if err == nil {
			err = os.WriteFile(*metricsOut, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcbench: writing %s: %v\n", *metricsOut, err)
			os.Exit(1)
		}
		fmt.Printf("dcbench: wrote per-experiment metrics for %d experiment(s) to %s\n", ran, *metricsOut)
	}
}

// snapshotDelta returns the registry samples that moved since the last
// call, updating prev in place. Counters and histogram series are
// cumulative so subtracting the previous value isolates one experiment's
// contribution; dcv_experiment_seconds gauges are set once per id and
// pass through unchanged.
func snapshotDelta(reg *obs.Registry, prev map[string]float64) []obs.Sample {
	var out []obs.Sample
	for _, s := range reg.Snapshot() {
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		key := s.Name
		for _, k := range keys {
			key += "\x00" + k + "=" + s.Labels[k]
		}
		d := s.Value - prev[key]
		prev[key] = s.Value
		if d != 0 {
			s.Value = d
			out = append(out, s)
		}
	}
	return out
}
