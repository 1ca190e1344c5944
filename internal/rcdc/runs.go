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
	// TableRuns returns a device's table as runs over at least positions
	// [lo, hi) of the list — a source may hand out more of them — and all
	// its rows outside the runs: appended to buf's Runs[:0] and Rows[:0],
	// or the source's own, shared and read only, leaving buf alone. A
	// source does one or the other for every device, so a caller may hand
	// what it got back in as the next buf.
	TableRuns(dev topology.DeviceID, lo, hi int, buf fib.RunTable) fib.RunTable
}

// ClassSource is a RunSource that can also name the devices it derives
// alike over a stretch of its prefix list (fib.RunClass): a check merges
// the runs of one device per class and stretch on each worker, the class's
// representative, and hands the others its verdict there (see checkRuns).
// RunClass must answer from the state TableRuns derives from and in time
// independent of the fleet; ok is false for a device or stretch it cannot
// vouch for, which is then checked on its own. Home names the stretch a
// full check of a device merges on its own, classing the positions before
// and after it; ok is false for a device a full check merges whole.
type ClassSource interface {
	RunSource
	RunClass(dev topology.DeviceID, lo, hi int) (c fib.RunClass, ok bool)
	Home(dev topology.DeviceID) (lo, hi int, ok bool)
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
// contract runs (see merge) over spans of the prefix list: the whole list,
// or — given the device's previous report and a row scope — the positions
// the scope can have moved verdicts at (see rescoped). A scoped check
// splices the fresh violations into prev's (see splice). Both kinds of
// runs are read in place: the source's and the generator's own, when they
// keep them. It returns the report and the number of contracts checked.
//
// On a ClassSource a check goes by class over the stretches its class
// vouches for: a scoped check without the default row over its scope's
// stretch, a full check before and after the device's home (fullClass).
// The first device of a class and check on the worker — the class's
// representative — merges its spans there on its own and keeps its fresh
// violations (see sweepBuf.classes); a later device of the class whose
// contract runs there equal the representative's takes those violations,
// relabeled to it, instead. They are the violations its own merge would
// find: the class fixes the table runs, the other rows and the default row
// it reads, the contract runs are compared, and a violation says nothing
// else of its device. Every device merges the rest on its own: a full
// check's home and default contract, a member pulling its runs over its
// home alone. A scoped member merges nothing: it is not pulled and reads
// no clock, and its Elapsed is zero.
func (s *sweep) checkRuns(id topology.DeviceID, buf *sweepBuf, prev *DeviceReport, scope []ipnet.Prefix) (DeviceReport, int, error) {
	start := buf.start(s.v.Clock)
	cr := s.gen.Runs(id, buf.contractRuns)
	buf.contractRuns = cr.Runs

	spans, withDefault := append(buf.spans[:0], span{0, len(s.prefixes)}), true
	if prev != nil && prev.Contracts == cr.Len() {
		spans, withDefault = s.scoped(buf, scope, prev)
	} else {
		prev = nil
		buf.spans = spans
	}
	// sts: the stretches the device's class vouches for, if it has one —
	// a scope's runs from its first span to its last.
	var stretches [2]span
	var key classKey
	sts, classed := stretches[:0], false
	switch {
	case s.classes == nil:
	case prev == nil:
		key, sts, classed = s.fullClass(id, sts)
	case !withDefault && len(spans) > 0:
		st := hull(spans)
		key.class, classed = s.classes.RunClass(id, st.lo, st.hi)
		key.scope, key.n = &scope[0], len(scope)
		sts = append(sts, st)
	}
	var cv *classVerdict // the class's verdict over sts
	if classed {
		if cv = buf.class(&key); cv != nil && !sameRunsIn(cv.contractRuns, cr.Runs, sts) {
			cv, classed = nil, false // a contract differs: checked on its own, not kept
		}
	}
	if cv != nil && prev != nil {
		return s.member(id, buf, prev, cv), cv.checked, nil
	}
	// own: the spans the device merges on its own; shared: those its
	// class's verdict covers — on a scoped check all of them, on a full
	// one all but its home. A member pulls its runs over its home alone.
	own, shared, pull := spans, []span(nil), hull(spans)
	var home [1]span
	if classed {
		own, shared = nil, spans
		if prev == nil {
			home[0] = key.home
			own, shared = home[:], sts
		}
		if cv != nil {
			pull = key.home
		}
	}

	var rep DeviceReport
	if prev != nil {
		rep = *prev
	} else {
		df := s.facts.Device(id)
		rep = DeviceReport{Device: id, Name: df.Name, Role: df.Role, Contracts: cr.Len()}
	}
	rt := s.runs.TableRuns(id, pull.lo, pull.hi, buf.pulled)
	buf.pulled = rt
	if classed && cv == nil {
		kept, t, err := s.merge(id, buf, rt, cr, shared, false, rep.Role)
		if err != nil {
			return DeviceReport{}, 0, err
		}
		cv = buf.keep(classVerdict{key: key, fresh: kept, tally: t}, cr.Runs, sts)
	}
	fresh, t, err := s.merge(id, buf, rt, cr, own, withDefault, rep.Role)
	if err != nil {
		return DeviceReport{}, 0, err
	}
	if cv != nil {
		t.add(cv.tally)
		if prev == nil {
			fresh = splice(fresh, cv.fresh, id, none)
		} else {
			fresh = cv.fresh
		}
	}
	rep.Violations = fresh
	if prev != nil {
		rep.Violations = splice(prev.Violations, fresh, id, s.redone(buf.spans, withDefault))
	}
	rep.Elapsed = buf.end(s.v.Clock, start)
	s.v.Metrics.observeDevice(&rep)
	s.v.Metrics.observeRuns(t.clean, t.expanded)
	return rep, t.checked, nil
}

// merge checks a device's contracts over spans — and its default contract
// when withDefault — against its table runs rt. Each segment where a
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
// It returns the violations and what it checked.
func (s *sweep) merge(id topology.DeviceID, buf *sweepBuf, rt fib.RunTable, cr contracts.DeviceRuns, spans []span, withDefault bool, role topology.Role) ([]Violation, tally, error) {
	var t tally
	ps := s.prefixes
	tr, err := window(rt.Runs, spans, len(ps))
	if err != nil {
		return nil, t, fmt.Errorf("rcdc: device %d: %w", id, err)
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
	t.checked = len(dc.Contracts)
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
			t.checked += hi - pos
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
					t.clean++
					pos = end
					continue
				}
				t.expanded++
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
	if len(dc.Contracts) == 0 {
		return nil, t, nil
	}
	buf.table = fib.Table{Device: id, Entries: rows}
	fresh, err := s.v.checker().CheckDevice(&buf.table, dc, role)
	return fresh, t, err
}

// tally is what a merge checked: contracts, and run segments decided clean
// or expanded.
type tally struct{ checked, clean, expanded int }

func (t *tally) add(u tally) {
	t.checked, t.clean, t.expanded = t.checked+u.checked, t.clean+u.clean, t.expanded+u.expanded
}

// member returns the report of a device that takes the verdict cv of its
// class's representative on a scoped check: prev with the violations of
// the contracts in the scope's spans replaced by cv's, relabeled to the
// device.
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

// none says no contract was re-checked: splicing a class's verdict into a
// full check's own violations replaces nothing.
func none(*contracts.Contract) bool { return false }

// fullClass returns the key of a full check's class and the stretches,
// appended to sts, that the class vouches for: the positions before and
// after the device's home, both in the one class. ok is false when the
// check goes without a class.
func (s *sweep) fullClass(id topology.DeviceID, sts []span) (key classKey, _ []span, ok bool) {
	lo, hi, ok := s.classes.Home(id)
	if !ok {
		return key, sts, false
	}
	key.home = span{lo, hi}
	for _, st := range [...]span{{0, lo}, {hi, len(s.prefixes)}} {
		if st.lo >= st.hi {
			continue
		}
		c, ok := s.classes.RunClass(id, st.lo, st.hi)
		if !ok || len(sts) > 0 && c != key.class {
			return key, sts, false
		}
		key.class, sts = c, append(sts, st)
	}
	return key, sts, len(sts) > 0
}

// classKey names what a class verdict covers: the class and the check — a
// scoped check's scope by its first row and length (devices share scope
// slices), a full check's home, outside which its stretches lie. A full
// check has no scope, so the two kinds never match.
type classKey struct {
	class fib.RunClass
	scope *ipnet.Prefix
	n     int
	home  span
}

// classVerdict is what a class representative's merge over its class's
// stretches found (see checkRuns): its contract runs there, one stretch
// after the other, its fresh violations there in contract order, and what
// the merge checked.
type classVerdict struct {
	key          classKey
	contractRuns []contracts.Run
	fresh        []Violation
	tally
}

// class returns the worker's verdict under a key, or nil. A worker meets
// a class's devices mostly one after the other, so the verdict found last
// is tried first.
func (buf *sweepBuf) class(k *classKey) *classVerdict {
	if buf.lastClass < len(buf.classes) && buf.classes[buf.lastClass].key.is(k) {
		return &buf.classes[buf.lastClass]
	}
	for i := range buf.classes {
		if buf.classes[i].key.is(k) {
			buf.lastClass = i
			return &buf.classes[i]
		}
	}
	return nil
}

// is reports whether two keys name one verdict.
func (k *classKey) is(o *classKey) bool {
	return k.scope == o.scope && k.class == o.class && k.n == o.n && k.home == o.home
}

// keep adds a representative's verdict over the stretches sts, copying its
// contract runs there (a generator that does not memoize hands them out in
// the worker's buffer), and returns it.
func (buf *sweepBuf) keep(cv classVerdict, contractRuns []contracts.Run, sts []span) *classVerdict {
	at := len(buf.classRuns)
	for _, st := range sts {
		buf.classRuns = append(buf.classRuns, runsIn(contractRuns, st)...)
	}
	cv.contractRuns = buf.classRuns[at:]
	buf.lastClass = len(buf.classes)
	buf.classes = append(buf.classes, cv)
	return &buf.classes[buf.lastClass]
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

// sameRunsIn reports whether two devices' contract runs — a kept over the
// stretches sts one after the other, b whole — expect the same next hops
// at every position of sts.
func sameRunsIn(a, b []contracts.Run, sts []span) bool {
	for _, st := range sts {
		bs := runsIn(b, st)
		if len(bs) > len(a) || !slices.EqualFunc(a[:len(bs)], bs, func(x, y contracts.Run) bool {
			return max(x.Lo, st.lo) == max(y.Lo, st.lo) && min(x.Hi, st.hi) == min(y.Hi, st.hi) && slices.Equal(x.NextHops, y.NextHops)
		}) {
			return false
		}
		a = a[len(bs):]
	}
	return len(a) == 0
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

// hull returns the stretch from the first span's start to the last's end,
// empty without spans.
func hull(spans []span) span {
	if len(spans) == 0 {
		return span{}
	}
	return span{spans[0].lo, spans[len(spans)-1].hi}
}
