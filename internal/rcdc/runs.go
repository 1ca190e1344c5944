package rcdc

import (
	"fmt"
	"slices"
	"sort"

	"dcvalidate/internal/clock"
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
	// TableRuns returns a device's table as runs, appended to buf[:0].
	TableRuns(dev topology.DeviceID, buf []fib.Run) fib.RunTable
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
// is contained in its prefix. A scoped check splices those violations into
// prev's (see splice). It returns the report and the number of contracts
// checked.
func (s *sweep) checkRuns(id topology.DeviceID, buf *sweepBuf, prev *DeviceReport, scope []ipnet.Prefix) (DeviceReport, int, error) {
	rt := s.runs.TableRuns(id, buf.tableRuns)
	buf.tableRuns = rt.Runs
	for i, r := range rt.Runs {
		if r.Lo < 0 || r.Lo >= r.Hi || r.Hi > len(s.prefixes) || i > 0 && rt.Runs[i-1].Hi > r.Lo {
			return DeviceReport{}, 0, fmt.Errorf("rcdc: device %d: table runs are not ascending and disjoint over the prefix list", id)
		}
	}
	cr := s.gen.Runs(id, buf.contractRuns)
	buf.contractRuns = cr.Runs
	start := clock.Or(s.v.Clock).Now()

	ps := s.prefixes
	spans, withDefault := append(buf.spans[:0], span{0, len(ps)}), true
	if prev != nil && prev.Contracts == cr.Len() {
		var read []ipnet.Prefix
		read, withDefault = rescoped(scope, prev)
		spans = spans[:0]
		for _, p := range read {
			if lo, hi := s.overlapRun(p); lo < hi {
				spans = append(spans, span{lo, hi})
			}
		}
		spans = mergeSpans(spans)
	} else {
		prev = nil
	}
	buf.spans = spans
	marks := buf.marks[:0]
	for _, e := range rt.Rows {
		if !e.Prefix.IsDefault() {
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
	tr, m := rt.Runs, 0
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

	tbl := fib.NewTable(id)
	tbl.Entries = rows
	if prev == nil {
		rep, err := s.v.validateDevice(s.facts, tbl, dc, start, cr.Len())
		if err != nil {
			return DeviceReport{}, 0, err
		}
		s.v.Metrics.observeRuns(clean, expanded)
		return rep, n, nil
	}
	fresh, err := s.v.checker().CheckDevice(tbl, dc, prev.Role)
	if err != nil {
		return DeviceReport{}, 0, err
	}
	rep := *prev
	rep.Violations = splice(prev.Violations, fresh, func(c *contracts.Contract) bool {
		if c.Kind == contracts.Default {
			return withDefault
		}
		lo, _ := s.overlapRun(c.Prefix)
		k := sort.Search(len(buf.spans), func(k int) bool { return buf.spans[k].hi > lo })
		return k < len(buf.spans) && buf.spans[k].lo <= lo
	})
	rep.Elapsed = clock.Since(s.v.Clock, start)
	s.v.Metrics.observeDevice(&rep)
	s.v.Metrics.observeRuns(clean, expanded)
	return rep, n, nil
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
