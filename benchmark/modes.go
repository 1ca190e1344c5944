package main

import "fmt"

// selfcheck runs every selected workload twice, untraced and traced, with
// the same seed and asserts that every count — events, rounds, dirty
// devices, contracts, shape builds — repeats exactly. Timed runs are
// refused: a deadline, not the seed, would decide their op counts.
func selfcheck(e *env, selected []workloadDef) int {
	if e.opts.seconds > 0 {
		return fail(fmt.Errorf("-selfcheck needs fixed op counts; drop -seconds"))
	}
	bad := 0
	for _, w := range selected {
		for _, run := range []struct {
			mode string
			fn   func(*env) (*result, error)
		}{{"untraced", w.run}, {"traced", w.traced}} {
			a, err := run.fn(e)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", w.name, err))
			}
			b, err := run.fn(e)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", w.name, err))
			}
			names := map[string]bool{}
			for n := range a.counts {
				names[n] = true
			}
			for n := range b.counts {
				names[n] = true
			}
			for _, n := range sortedKeys(names) {
				status := "ok"
				if a.counts[n] != b.counts[n] {
					status = "DIFFERS"
					bad++
				}
				fmt.Printf("selfcheck %-12s %-8s %-28s %12d %12d  %s\n", w.name, run.mode, n, a.counts[n], b.counts[n], status)
			}
			bad += len(a.wrong) + len(b.wrong)
			for _, msg := range append(a.wrong, b.wrong...) {
				fmt.Printf("selfcheck %-12s %-8s WRONG %s\n", w.name, run.mode, msg)
			}
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d count(s) differ or verdicts wrong\n", bad)
		return 1
	}
	fmt.Println("selfcheck: every count repeats")
	return 0
}

// repeatSets runs K full untraced sets and holds every end-to-end metric
// to its bound in BENCHMARK.json: the spread of its K values — quartile
// distance over median from four sets up, full range over median below —
// must stay within the bound. setup_s is printed but, as in the driver,
// not failed on its spread.
func repeatSets(e *env, selected []workloadDef, decl *declaration) int {
	values := map[string]map[string]samples{} // workload → metric → one value per set
	code := 0
	for set := 0; set < e.opts.repeat; set++ {
		fmt.Printf("# set %d of %d\n", set+1, e.opts.repeat)
		for _, w := range selected {
			res, err := runOne(e, w, decl)
			if err != nil {
				return fail(err)
			}
			if len(res.wrong) > 0 {
				code = 1
			}
			if values[w.name] == nil {
				values[w.name] = map[string]samples{}
			}
			for _, m := range decl.EndToEnd {
				values[w.name][m.Name] = append(values[w.name][m.Name], res.metrics[m.Name])
			}
		}
	}
	fmt.Printf("%-12s %-26s %12s %9s %7s\n", "workload", "metric", "median", "spread", "bound")
	for _, w := range selected {
		for _, m := range decl.EndToEnd {
			vs := values[w.name][m.Name]
			sp := spread(vs)
			if len(vs) < 4 {
				xs := vs.sorted()
				sp = safeDiv(xs[len(xs)-1]-xs[0], vs.median())
			}
			status := ""
			if sp > m.Bound {
				status = "EXCEEDS"
				if m.Name != "setup_s" {
					code = 1
				}
			}
			fmt.Printf("%-12s %-26s %12.6g %8.1f%% %6.0f%% %s\n", w.name, m.Name, vs.median(), 100*sp, 100*m.Bound, status)
		}
	}
	return code
}
