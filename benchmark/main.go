// Command benchmark is the one ledger for the change→verdict plane: four
// named workloads, each run untraced for the end-to-end metrics a user of
// the system sees and traced (-trace) for the per-layer breakdown, with a
// correctness oracle armed on every run. README.md has the metric and
// workload definitions; ../BENCHMARK.json declares names, units, bounds.
//
//	cd benchmark && go run . -seed 1            # all workloads, full size
//	cd benchmark && go run . -quick             # < 20 s smoke, oracle armed
//	bash benchmark/run.sh --workload link_churn --seed 3 --seconds 12 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// options are the command line.
type options struct {
	seed      int64
	seconds   float64 // measured time per workload; 0 = fixed op counts
	trace     bool
	quick     bool
	repeat    int
	selfcheck bool
	out       string
}

// env is what a workload run receives: its inputs are a function of
// (seed, sizes) only.
type env struct {
	ctx   context.Context // cancelled on SIGINT/SIGTERM; subprocesses die with it
	opts  options
	root  string // repository root (the module that holds cmd/dcvalidated)
	sizes sizes
}

// measureFor is how long a workload measures when -seconds is given.
func (e *env) measureFor() time.Duration {
	return time.Duration(e.opts.seconds * float64(time.Second))
}

// result is one workload run: the contract's correct/attempted/failed
// triple, every named metric, the timing rows behind them, and the
// counts that must repeat exactly under the same seed.
type result struct {
	workload  string
	attempted int
	failed    int
	wrong     []string // oracle disagreements, one line each
	metrics   map[string]float64
	rows      map[string]samples
	counts    map[string]int64
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: map[string]float64{},
		rows: map[string]samples{}, counts: map[string]int64{}}
}

// set records a metric value; row additionally keeps the samples behind
// it so the report can print count, quartiles, tail and max.
func (r *result) set(name string, v float64) { r.metrics[name] = v }
func (r *result) row(name string, s samples) {
	r.rows[name] = s
	r.metrics[name] = s.median()
}

// op counts one attempted operation and whether it failed.
func (r *result) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "benchmark: %s: operation failed: %v\n", r.workload, err)
	}
	return err == nil
}

// expect records an oracle check; a false condition is a wrong verdict.
func (r *result) expect(ok bool, format string, args ...any) {
	if !ok {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

// workloadDef binds a name to its untraced and traced runs.
type workloadDef struct {
	name   string
	run    func(*env) (*result, error)
	traced func(*env) (*result, error)
}

var workloads = []workloadDef{
	{"fleet_sweep", runFleetSweep, traceFleetSweep},
	{"link_churn", runLinkChurn, traceLinkChurn},
	{"serve_mixed", runServeMixed, traceServeMixed},
	{"policy_smt", runPolicySMT, tracePolicySMT},
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var o options
	var names string
	var trace int
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "measure each workload for this long instead of a fixed op count")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics; 0 = untraced run printing end-to-end metrics")
	flag.BoolVar(&o.quick, "quick", false, "smoke sizes (136/520 devices, 10 events, 3 s serve, 2 ACLs); oracle still armed")
	flag.StringVar(&names, "workload", "", "comma-separated workload names (default: all)")
	flag.IntVar(&o.repeat, "repeat", 1, "run K full sets and fail if any end-to-end metric's spread exceeds its bound")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run every workload twice with the same seed and assert all counts repeat exactly")
	flag.StringVar(&o.out, "out", "", "also write results as JSON to this path (\"tmp\" = a fresh file under os.TempDir())")
	flag.Parse()
	o.trace = trace != 0

	root, err := repoRoot()
	if err != nil {
		return fail(err)
	}
	decl, err := loadDeclaration(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	selected, err := selectWorkloads(names)
	if err != nil {
		return fail(err)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	e := &env{ctx: ctx, opts: o, root: root, sizes: sizesFor(o.quick)}
	printHeader(e)

	switch {
	case o.selfcheck:
		return selfcheck(e, selected)
	case o.repeat > 1:
		return repeatSets(e, selected, decl)
	}
	var all []*result
	code := 0
	for _, w := range selected {
		res, err := runOne(e, w, decl)
		if err != nil {
			return fail(err)
		}
		all = append(all, res)
		if len(res.wrong) > 0 {
			code = 1
		}
	}
	if err := writeOut(e, all); err != nil {
		return fail(err)
	}
	return code
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// selectWorkloads resolves a comma-separated list of names; empty means all.
func selectWorkloads(names string) ([]workloadDef, error) {
	if names == "" {
		return workloads, nil
	}
	var out []workloadDef
	for _, n := range strings.Split(names, ",") {
		found := false
		for _, w := range workloads {
			if w.name == n {
				out = append(out, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return out, nil
}

// runOne runs a workload in the selected mode, prints its report and its
// contract line, and returns the result. An oracle disagreement is
// reported on the contract line ("correct": false), not as an error.
func runOne(e *env, w workloadDef, decl *declaration) (*result, error) {
	run := w.run
	if e.opts.trace {
		run = w.traced
	}
	resetPeakRSS()
	res, err := run(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	line, err := decl.contractLine(res, e.opts.trace)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	printReport(res, decl)
	fmt.Println(line)
	return res, nil
}

// repoRoot finds the dcvalidate module root: the nearest ancestor of the
// working directory whose go.mod declares "module dcvalidate". The
// benchmark runs from the root (run.sh) or from benchmark/ (go run .).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(strings.TrimSpace(string(b)), "module dcvalidate\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no dcvalidate go.mod above the working directory")
		}
		dir = parent
	}
}

// printHeader is the run header every output starts with.
func printHeader(e *env) {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	mode := "full"
	if e.opts.quick {
		mode = "quick"
	}
	if e.opts.seconds > 0 {
		mode += fmt.Sprintf(" timed=%gs", e.opts.seconds)
	}
	fmt.Printf("# benchmark commit=%s go=%s gomaxprocs=%d nproc=%d seed=%d mode=%s trace=%v\n",
		commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), e.opts.seed, mode, e.opts.trace)
	fmt.Printf("# sizes %s\n", e.sizes)
}

// printReport prints every metric of a run by name with its unit, timing
// rows with their sample count, quartiles, supported tail and max.
func printReport(res *result, decl *declaration) {
	fmt.Printf("workload %s: attempted=%d failed=%d failed_share=%.4g wrong_verdicts=%d\n",
		res.workload, res.attempted, res.failed,
		safeDiv(float64(res.failed), float64(res.attempted)), len(res.wrong))
	for _, w := range res.wrong {
		fmt.Printf("  WRONG %s\n", w)
	}
	for _, n := range sortedKeys(res.metrics) {
		detail := ""
		if s, ok := res.rows[n]; ok {
			detail = "  " + summarize(s).String()
		}
		fmt.Printf("  %-36s %14.6g %-6s%s\n", n, res.metrics[n], decl.unit(n), detail)
	}
	for _, n := range sortedKeys(res.counts) {
		fmt.Printf("  count %-30s %14d\n", n, res.counts[n])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeOut writes the results as JSON when -out asks for it. The default
// destination is under os.TempDir(): a benchmark run never creates or
// modifies a file in the repository.
func writeOut(e *env, all []*result) error {
	if e.opts.out == "" {
		return nil
	}
	type outResult struct {
		Workload  string             `json:"workload"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Wrong     []string           `json:"wrong_verdicts"`
		Metrics   map[string]float64 `json:"metrics"`
		Counts    map[string]int64   `json:"counts"`
	}
	doc := struct {
		Seed    int64       `json:"seed"`
		Quick   bool        `json:"quick"`
		Trace   bool        `json:"trace"`
		Seconds float64     `json:"seconds"`
		Go      string      `json:"go"`
		Procs   int         `json:"gomaxprocs"`
		Results []outResult `json:"results"`
	}{e.opts.seed, e.opts.quick, e.opts.trace, e.opts.seconds, runtime.Version(), runtime.GOMAXPROCS(0), nil}
	for _, r := range all {
		doc.Results = append(doc.Results, outResult{r.workload, r.attempted, r.failed, r.wrong, r.metrics, r.counts})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := e.opts.out
	if path == "tmp" {
		f, err := os.CreateTemp("", "benchmark-*.json")
		if err != nil {
			return err
		}
		path = f.Name()
		if err := f.Close(); err != nil {
			return err
		}
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchmark: results written to %s\n", path)
	return nil
}
