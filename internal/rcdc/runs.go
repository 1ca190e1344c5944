package rcdc

import (
	"fmt"
	"slices"
	"sort"

	"dcvalidate/internal/contracts"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/topology"
)

// RunSource is a fib.Source that can also hand a table over as runs over
// one prefix list every device shares (fib.RunTable): stretches of the
// hosted prefixes forwarded alike. A ToR's ~1600 "via all my leaves" rows
// are one run, and a whole-device check that meets them with the device's
// contract runs decides each stretch once (see checkRuns).
type RunSource interface {
	fib.Source
	// RunPrefixes returns the list runs index, or nil when the source
	// offers no runs.
	RunPrefixes() []topology.HostedPrefix
	// TableRuns returns a device's table as runs: appended to buf[:0], or
	// the source's own runs, shared and read only, leaving buf alone. A
	// source does one or the other for every device, so a caller may hand
	// what it got back in as the next buf.
	TableRuns(dev topology.DeviceID, buf []fib.Run) fib.RunTable
}

// ClassSource is a RunSource that can also name the devices it derives
// alike over a stretch of its prefix list (fib.RunClass): a scoped check
// merges the runs of one device per class and scope on each worker, the
// class's representative, and hands the others its verdict (see
// checkRuns). RunClass must answer from the state TableRuns derives from
// and in time independent of the fleet; ok is false for a device or
// stretch it cannot vouch for, which is then checked on its own.
type ClassSource interface {
	RunSource
	RunClass(dev topology.DeviceID, lo, hi int) (c fib.RunClass, ok bool)
}

// newSweep sets up a sweep, with runs when the source offers them, the
// checker is the trie checker and the runs' prefix list is a flat address
// plan (ascending, pairwise disjoint: no row at one position can read
// another's contract) that is also the generator's. Otherwise — monitor
// pulls, corrupted or simulated tables, other plans, the PEC and SMT
// engines — tables are checked row by row, which is also the runs path's
// differential oracle.
func (v *Validator) newSweep(facts *metadata.Facts, gen *contracts.Generator, source fib.Source, memo bool) *sweep {
	s := &sweep{v: v, facts: facts, gen: gen, source: source, memo: memo}
	rs, ok := source.(RunSource)
	trie, isTrie := v.checker().(TrieChecker)
	if !ok || !isTrie {
		return s
	}
	ps, want := rs.RunPrefixes(), gen.Prefixes()
	if ps == nil || len(ps) != len(want) {
		return s
	}
	for i := range ps {
		if ps[i].Prefix != want[i].Prefix || i > 0 && ps[i-1].Prefix.Last() >= ps[i].Prefix.First() {
			return s
		}
	}
	s.runs, s.prefixes, s.exact = rs, ps, trie.Exact
	s.classes, _ = source.(ClassSource)
	return s
}

// checkRuns validates one device by merging its table runs with its
// contract runs over spans of the prefix list: the whole list, or — given
// the device's previous report and a row scope — the positions the scope
// can have moved verdicts at (see rescoped). Each segment where a
// contract run meets a table run is decided once: clean when hopsOKSorted
// approves the table run's next hops against the contract run's and no row
// outside the runs overlaps it. Every other segment — red, or a gap with no
// table run, or overlapped by such a row — is expanded into its rows and
// contracts. The trie checker then checks the device's fragment — the rows
// outside the runs, the expanded rows, the default contract (when in
// scope) and the expanded contracts — and returns exactly the violations,
// in contract order, that checking the same contracts against the whole
// table row by row would: a clean segment's contracts pass the merge-join's
// fast path there, and everything an expanded contract can read is in the
// fragment, because on a flat plan no row at another position contains or
// is contained in its prefix. A fragment without contracts is not checked.
// A scoped check splices those violations into prev's (see splice). Both
// kinds of runs are read in place: the source's and the generator's own,
// when they keep them. It returns the report and the number of contracts
// checked.
//
// A scoped check without the default row on a ClassSource goes by class:
// the first device of a (class, scope) on the worker is merged as above,
// and its fresh violations are kept (see sweepBuf.classes); a later device
// of the same class and scope whose contract runs over the scope's stretch
// equal the representative's is not pulled at all — its verdicts are the
// representative's, relabeled to it, spliced into its own previous report.
// Those are the violations its own merge would find: the class fixes the
// table runs, the other rows and the default row it reads, the contract
// runs are compared, and a violation says nothing else of its device. Such
// a member reads no clock: its Elapsed is zero.
func (s *sweep) checkRuns(id topology.DeviceID, buf *sweepBuf, prev *DeviceReport, scope []ipnet.Prefix) (DeviceReport, int, error) {
	start := buf.start(s.v.Clock)
	cr := s.gen.Runs(id, buf.contractRuns)
	buf.contractRuns = cr.Runs

	ps := s.prefixes
	spans, withDefault := append(buf.spans[:0], span{0, len(ps)}), true
	if prev != nil && prev.Contracts == cr.Len() {
		spans, withDefault = s.scoped(buf, scope, prev)
	} else {
		prev = nil
		buf.spans = spans
	}
	var class fib.RunClass
	var stretch span // from the scope's first position to its last
	classed := false
	if prev != nil && !withDefault && len(spans) > 0 && s.classes != nil {
		stretch = span{spans[0].lo, spans[len(spans)-1].hi}
		if class, classed = s.classes.RunClass(id, stretch.lo, stretch.hi); classed {
			if cv, ok := buf.class(class, scope); ok {
				if sameRunsIn(cv.contractRuns, cr.Runs, stretch) {
					return s.member(id, buf, prev, cv), cv.checked, nil
				}
				classed = false // a contract differs: checked on its own, not kept
			}
		}
	}

	rt := s.runs.TableRuns(id, buf.tableRuns)
	buf.tableRuns = rt.Runs
	tr, err := window(rt.Runs, spans, len(ps))
	if err != nil {
		return DeviceReport{}, 0, fmt.Errorf("rcdc: device %d: %w", id, err)
	}
	// Rows outside the runs mark the positions they overlap, which only
	// matters inside the spans: a row wholly outside their addresses is
	// not searched for.
	marks := buf.marks[:0]
	if len(spans) > 0 {
		first, last := ps[spans[0].lo].Prefix.First(), ps[spans[len(spans)-1].hi-1].Prefix.Last()
		for _, e := range rt.Rows {
			if e.Prefix.IsDefault() || e.Prefix.Last() < first || e.Prefix.First() > last {
				continue
			}
			if lo, hi := s.overlapRun(e.Prefix); lo < hi {
				marks = append(marks, span{lo, hi})
			}
		}
	}
	marks = mergeSpans(marks)
	buf.marks = marks

	rows := append(buf.rows[:0], rt.Rows...)
	dc := contracts.DeviceContracts{Device: id, Contracts: buf.contracts[:0]}
	if withDefault && len(cr.Default) > 0 {
		dc.Contracts = append(dc.Contracts, contracts.Contract{Device: id, Kind: contracts.Default, NextHops: cr.Default})
	}
	n := len(dc.Contracts)
	var clean, expanded int
	m := 0
	for _, c := range cr.Runs {
		for len(spans) > 0 && spans[0].hi <= c.Lo {
			spans = spans[1:]
		}
		for _, sp := range spans {
			if sp.lo >= c.Hi {
				break
			}
			hi := min(c.Hi, sp.hi)
			pos := max(c.Lo, sp.lo)
			n += hi - pos
			for pos < hi {
				// The segment from pos: up to the end of the contract run
				// within the span, of the table run covering pos (or the gap
				// before the next), and of the marked or unmarked stretch pos
				// is in.
				for len(tr) > 0 && tr[0].Hi <= pos {
					tr = tr[1:]
				}
				end, covered := hi, len(tr) > 0 && tr[0].Lo <= pos
				switch {
				case covered:
					end = min(end, tr[0].Hi)
				case len(tr) > 0:
					end = min(end, tr[0].Lo)
				}
				for m < len(marks) && marks[m].hi <= pos {
					m++
				}
				marked := m < len(marks) && marks[m].lo <= pos
				switch {
				case marked:
					end = min(end, marks[m].hi)
				case m < len(marks):
					end = min(end, marks[m].lo)
				}

				if covered && !marked && len(tr[0].NextHops) > 0 && hopsOKSorted(c.NextHops, tr[0].NextHops, s.exact) {
					clean++
					pos = end
					continue
				}
				expanded++
				for ; pos < end; pos++ {
					p := ps[pos].Prefix
					if covered {
						rows = append(rows, fib.Entry{Prefix: p, NextHops: tr[0].NextHops})
					}
					dc.Contracts = append(dc.Contracts, contracts.Contract{Device: id, Kind: contracts.Specific, Prefix: p, NextHops: c.NextHops})
				}
			}
		}
	}
	buf.rows, buf.contracts = rows, dc.Contracts

	var rep DeviceReport
	if prev != nil {
		rep = *prev
	} else {
		df := s.facts.Device(id)
		rep = DeviceReport{Device: id, Name: df.Name, Role: df.Role, Contracts: cr.Len()}
	}
	var fresh []Violation
	if len(dc.Contracts) > 0 {
		tbl := fib.NewTable(id)
		tbl.Entries = rows
		if fresh, err = s.v.checker().CheckDevice(tbl, dc, rep.Role); err != nil {
			return DeviceReport{}, 0, err
		}
	}
	rep.Violations = fresh
	if prev != nil {
		rep.Violations = splice(prev.Violations, fresh, id, s.redone(buf.spans, withDefault))
	}
	if classed {
		buf.keep(classVerdict{class: class, scope: &scope[0], n: len(scope), fresh: fresh,
			checked: n, clean: clean, expanded: expanded}, runsIn(cr.Runs, stretch))
	}
	rep.Elapsed = buf.end(s.v.Clock, start)
	s.v.Metrics.observeDevice(&rep)
	s.v.Metrics.observeRuns(clean, expanded)
	return rep, n, nil
}

// member returns the report of a device that takes the verdict cv of its
// class's representative: prev with the violations of the contracts in
// the scope's spans replaced by cv's, relabeled to the device.
func (s *sweep) member(id topology.DeviceID, buf *sweepBuf, prev *DeviceReport, cv *classVerdict) DeviceReport {
	buf.members++
	rep := *prev
	rep.Violations = splice(prev.Violations, cv.fresh, id, s.redone(buf.spans, false))
	rep.Elapsed = 0
	s.v.Metrics.observeDevice(&rep)
	s.v.Metrics.observeRuns(cv.clean, cv.expanded)
	return rep
}

// redone returns whether a scoped check over spans, and the default
// contract when withDefault, re-checked a contract.
func (s *sweep) redone(spans []span, withDefault bool) func(*contracts.Contract) bool {
	return func(c *contracts.Contract) bool {
		if c.Kind == contracts.Default {
			return withDefault
		}
		lo, _ := s.overlapRun(c.Prefix)
		k := sort.Search(len(spans), func(k int) bool { return spans[k].hi > lo })
		return k < len(spans) && spans[k].lo <= lo
	}
}

// classVerdict is what a class representative's scoped check found (see
// checkRuns): the class, the scope by its first row and length (devices
// share scope slices), the representative's contract runs over the scope's
// stretch, its fresh violations in contract order, and the contracts and
// segments its merge checked.
type classVerdict struct {
	class                    fib.RunClass
	scope                    *ipnet.Prefix
	n                        int
	contractRuns             []contracts.Run
	fresh                    []Violation
	checked, clean, expanded int
}

// class returns the worker's verdict for a class and scope, if it has one.
// A worker meets a class's devices mostly one after the other, so the
// verdict found last is tried first.
func (buf *sweepBuf) class(c fib.RunClass, scope []ipnet.Prefix) (*classVerdict, bool) {
	match := func(cv *classVerdict) bool { return cv.class == c && cv.scope == &scope[0] && cv.n == len(scope) }
	if buf.lastClass < len(buf.classes) && match(&buf.classes[buf.lastClass]) {
		return &buf.classes[buf.lastClass], true
	}
	for i := range buf.classes {
		if match(&buf.classes[i]) {
			buf.lastClass = i
			return &buf.classes[i], true
		}
	}
	return nil, false
}

// keep adds a representative's verdict, copying its contract runs: a
// generator that does not memoize hands them out in the worker's buffer.
func (buf *sweepBuf) keep(cv classVerdict, contractRuns []contracts.Run) {
	at := len(buf.classRuns)
	buf.classRuns = append(buf.classRuns, contractRuns...)
	cv.contractRuns = buf.classRuns[at:]
	buf.lastClass = len(buf.classes)
	buf.classes = append(buf.classes, cv)
}

// runsIn returns the runs of an ascending, disjoint list that overlap the
// positions of st.
func runsIn(runs []contracts.Run, st span) []contracts.Run {
	i := sort.Search(len(runs), func(k int) bool { return runs[k].Hi > st.lo })
	j := i
	for j < len(runs) && runs[j].Lo < st.hi {
		j++
	}
	return runs[i:j]
}

// sameRunsIn reports whether two devices' contract runs — a kept over st,
// b whole — expect the same next hops at every position of st.
func sameRunsIn(a, b []contracts.Run, st span) bool {
	return slices.EqualFunc(a, runsIn(b, st), func(x, y contracts.Run) bool {
		return max(x.Lo, st.lo) == max(y.Lo, st.lo) && min(x.Hi, st.hi) == min(y.Hi, st.hi) && slices.Equal(x.NextHops, y.NextHops)
	})
}

// scoped returns the spans of positions a row scope can have moved verdicts
// at on a device whose previous report is prev, and whether it can have
// moved the default contract's (see rescoped), leaving the spans in
// buf.spans. Devices share scope slices (delta.Scope), so a worker maps the
// last scope without the default row it met once, not once per device.
func (s *sweep) scoped(buf *sweepBuf, scope []ipnet.Prefix, prev *DeviceReport) ([]span, bool) {
	shared := len(scope) > 0 && !scope[0].IsDefault()
	if shared && buf.scope.first == &scope[0] && buf.scope.n == len(scope) {
		buf.spans = append(buf.spans[:0], buf.scope.spans...)
		return buf.spans, false
	}
	var withDefault bool
	buf.read, withDefault = rescoped(buf.read[:0], scope, prev)
	spans := buf.spans[:0]
	for _, p := range buf.read {
		if lo, hi := s.overlapRun(p); lo < hi {
			spans = append(spans, span{lo, hi})
		}
	}
	spans = mergeSpans(spans)
	buf.spans = spans
	if shared {
		buf.scope.first, buf.scope.n = &scope[0], len(scope)
		buf.scope.spans = append(buf.scope.spans[:0], spans...)
	}
	return spans, withDefault
}

// window returns the table runs a merge over spans reads: from the first
// that ends after the first span starts, up to the last that starts before
// the last span ends — checked to be ascending and disjoint over a prefix
// list of n positions, and to start after the run before them ends. A
// scoped check reads and checks only the runs at its spans.
func window(runs []fib.Run, spans []span, n int) ([]fib.Run, error) {
	if len(spans) == 0 {
		return nil, nil
	}
	lo, hi := spans[0].lo, spans[len(spans)-1].hi
	i := sort.Search(len(runs), func(k int) bool { return runs[k].Hi > lo })
	j := i
	for ; j < len(runs) && runs[j].Lo < hi; j++ {
		if r := runs[j]; r.Lo < 0 || r.Lo >= r.Hi || r.Hi > n || j > 0 && runs[j-1].Hi > r.Lo {
			return nil, fmt.Errorf("table runs are not ascending and disjoint over the prefix list")
		}
	}
	return runs[i:j], nil
}

// overlapRun returns the positions [lo, hi) of the prefix list whose
// prefix contains or is contained in p.
func (s *sweep) overlapRun(p ipnet.Prefix) (lo, hi int) {
	return ipnet.OverlapRun(len(s.prefixes), func(i int) ipnet.Prefix { return s.prefixes[i].Prefix }, p)
}

// span is a stretch [lo, hi) of prefix list positions.
type span struct{ lo, hi int }

// mergeSpans sorts spans and merges the overlapping ones, in place.
func mergeSpans(sp []span) []span {
	slices.SortFunc(sp, func(a, b span) int { return a.lo - b.lo })
	w := 0
	for _, s := range sp {
		if w > 0 && sp[w-1].hi >= s.lo {
			sp[w-1].hi = max(sp[w-1].hi, s.hi)
			continue
		}
		sp[w] = s
		w++
	}
	return sp[:w]
}
