// Command dcbench regenerates the paper's evaluation, experiments E1–E15
// (see DESIGN.md's experiment index), and prints paper-style tables.
//
// Usage:
//
//	dcbench              # run all experiments at default scale
//	dcbench -e e2,e4     # run a subset (ids e1..e15, e4s, e7b, e13b, e13c)
//	dcbench -quick       # smaller parameter sweeps (CI-friendly)
//	dcbench -full        # include the 10^4-device E2 point (minutes)
//
// A full-size E4 run (no -quick) additionally writes its machine-readable
// rows, under a run header, to BENCH_solver.json in the current directory;
// e4s is the CI solver-perf smoke (panics when the SMT engine regresses
// past a generous per-contract ceiling or disagrees with the trie engine).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"dcvalidate/internal/experiments"
)

// runHeader says what host and toolchain a BENCH_*.json was measured on,
// so ledger entries from different runs compare.
type runHeader struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUs       int    `json:"cpus"`
	Sizes      string `json:"sizes"` // "full": the default sweep sizes (-quick runs write no ledger)
}

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

func main() {
	var (
		only  = flag.String("e", "", "comma-separated experiment ids (e1..e15, e4s, e7b, e13b, e13c); empty = all")
		quick = flag.Bool("quick", false, "reduced sweeps")
		full  = flag.Bool("full", false, "include the 10^4-device sweep point")
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
	claim1Trials := 40
	if *quick {
		e1Sizes = []int{500, 1000}
		e2Sizes = []int{250, 500}
		e3Sizes = []int{250}
		e4Sizes = []int{250, 500}
		e4sSize = 250
		e8Sizes = []int{100, 300, 1000}
		e13Sizes = []int{500, 1000}
		claim1Trials = 10
	}
	if *full {
		e2Sizes = append(e2Sizes, 10000)
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
			if *quick {
				fmt.Fprintln(os.Stderr, "dcbench: -quick: BENCH_solver.json left as is (only full-size E4 runs write it)")
				return res
			}
			writeJSON("BENCH_solver.json", struct {
				Run  runHeader           `json:"run"`
				Rows []experiments.E4Row `json:"rows"`
			}{runHeader{runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), "full"}, rows})
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
	}
	ran := 0
	for _, e := range all {
		if !run(e.id) {
			continue
		}
		fmt.Println(e.fn())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "dcbench: no experiment matches %q\n", *only)
		os.Exit(2)
	}
}
