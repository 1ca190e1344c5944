package explore

import (
	"dcvalidate/internal/bgp"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/topology"
)

// Partial-order reduction over ordered fault sequences. A k-fault
// scenario has k! orderings, but an ordering only matters when the faults
// interact: swapping two adjacent *independent* faults — faults whose
// blast radii are disjoint — produces the same intermediate verdicts,
// because each step's revalidation touches disjoint device sets. The
// explorer therefore keeps only canonical traces: orderings in which
// every adjacent pair that is inverted relative to the fault total order
// is dependent. Every trace is reachable from a canonical one by
// bubble-sorting independent adjacent pairs, so restricting to canonical
// traces loses no distinguishable behavior. Dependence uses the
// base-state single-fault blast radii, which internal/delta computes as
// supersets; an unbounded (Full) radius is dependent on everything.

// blastSets computes each elementary fault's blast radius in the base
// state by applying it to a scratch clone, running the blast-radius
// analysis over the journal window, and restoring.
func (e *Explorer) blastSets(universe []Fault) (map[Fault]*delta.Set, error) {
	t := e.Topo.Clone()
	unbounded := bgp.ConfigUnbounded(e.Cfg)
	out := make(map[Fault]*delta.Set, len(universe))
	for _, f := range universe {
		prevGen := t.Generation()
		undo, dead := applyFaults(t, []Fault{f})
		s := delta.Since(t, prevGen, delta.Options{UnboundedConfig: unbounded})
		for d := range dead {
			s.Add(d)
		}
		undo()
		out[f] = s
	}
	return out, nil
}

// overlap reports whether two blast radii intersect; nil or unbounded
// radii conservatively overlap everything.
func overlap(a, b *delta.Set) bool {
	if a == nil || b == nil || a.Full() || b.Full() {
		return true
	}
	if a.Count() > b.Count() {
		a, b = b, a
	}
	for _, d := range a.Devices() {
		if b.Contains(d) {
			return true
		}
	}
	return false
}

// canonicalTrace reports whether an ordering is its equivalence class's
// representative: every adjacent pair inverted relative to the fault
// total order must be dependent. The identity-sorted ordering is always
// canonical, so no class is ever dropped.
func (w *worker) canonicalTrace(seq []Fault) bool {
	for i := 0; i+1 < len(seq); i++ {
		if seq[i+1].less(seq[i]) && !overlap(w.blasts[seq[i]], w.blasts[seq[i+1]]) {
			return false
		}
	}
	return true
}

// traceOutcome aggregates one class's ordered sweep.
type traceOutcome struct {
	total     uint64
	canonical int
	violating int
	transient map[string]bool
}

// traces sweeps the canonical orderings of one explored class
// representative, validating after every step so transient violations —
// failures visible mid-sequence but healed in the final state — are
// caught.
func (w *worker) traces(j job) (*traceOutcome, error) {
	k := len(j.faults)
	to := &traceOutcome{
		total:     uint64(j.weight) * factorial(k),
		transient: make(map[string]bool),
	}
	finalKeys := w.cache[Key(j.faults)]
	for _, seq := range permutations(j.faults) {
		if !w.canonicalTrace(seq) {
			continue
		}
		to.canonical++
		keys, err := w.evalTrace(seq)
		if err != nil {
			return nil, err
		}
		if len(keys) > 0 {
			to.violating++
		}
		for vk := range keys {
			if !finalKeys[vk] {
				to.transient[vk] = true
			}
		}
	}
	return to, nil
}

// evalTrace applies the sequence one fault at a time, delta-revalidating
// after each step against the previous step's report, and returns the
// union of new violation keys seen at any step. The clone is restored to
// the base state before returning.
func (w *worker) evalTrace(seq []Fault) (map[string]bool, error) {
	keys := make(map[string]bool)
	prev := w.base()
	dead := make(map[topology.DeviceID]bool)
	var undos []func()
	unwind := func() {
		for i := len(undos) - 1; i >= 0; i-- {
			undos[i]()
		}
	}
	for i := range seq {
		undo, d := applyFaults(w.topo, seq[i:i+1])
		undos = append(undos, undo)
		for dd := range d {
			dead[dd] = true
		}
		rep, err := w.validate(dead, prev)
		if err != nil {
			unwind()
			return nil, err
		}
		for _, v := range rep.Violations() {
			if vk := ViolationKey(v); !w.baseKeys[vk] {
				keys[vk] = true
			}
		}
		prev = rep
	}
	unwind()
	return keys, nil
}

func factorial(n int) uint64 {
	r := uint64(1)
	for i := 2; i <= n; i++ {
		r *= uint64(i)
	}
	return r
}

// permutations enumerates every ordering of the fault set (Heap's
// algorithm), deterministically.
func permutations(fs []Fault) [][]Fault {
	var out [][]Fault
	work := append([]Fault(nil), fs...)
	var heaps func(n int)
	heaps = func(n int) {
		if n == 1 {
			out = append(out, append([]Fault(nil), work...))
			return
		}
		for i := 0; i < n; i++ {
			heaps(n - 1)
			if n%2 == 0 {
				work[i], work[n-1] = work[n-1], work[i]
			} else {
				work[0], work[n-1] = work[n-1], work[0]
			}
		}
	}
	heaps(len(work))
	return out
}
