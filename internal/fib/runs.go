package fib

import (
	"slices"

	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/topology"
)

// Run is a stretch of a table's specific rows: one row at each position
// Lo..Hi-1 of a prefix list the table's source shares across the fleet
// (the hosted prefixes, in order), all forwarding to NextHops. A ToR's
// "via all my leaves" rows are one run, not one row per prefix.
type Run struct {
	Lo, Hi   int
	NextHops []topology.DeviceID
}

// RunTable is a device's table written as runs over a prefix list: Rows
// holds every row that is not at a run position — connected routes, the
// default route, anything else — and Runs, ascending and disjoint, the
// rest. The table it stands for is Rows followed by the rows of each run
// in order (Expand). NextHops slices are shared and immutable.
type RunTable struct {
	Device topology.DeviceID
	Rows   []Entry
	Runs   []Run
}

// Expand materializes the table the runs stand for over the prefix list
// they index: Rows, then one row per run position.
func (rt RunTable) Expand(prefixes []topology.HostedPrefix) *Table {
	n := len(rt.Rows)
	for _, r := range rt.Runs {
		n += r.Hi - r.Lo
	}
	t := NewTable(rt.Device)
	t.Entries = append(make([]Entry, 0, n), rt.Rows...)
	for _, r := range rt.Runs {
		for i := r.Lo; i < r.Hi; i++ {
			t.Entries = append(t.Entries, Entry{Prefix: prefixes[i].Prefix, NextHops: r.NextHops})
		}
	}
	return t
}

// RunClass names the devices a source derives alike over a stretch of its
// prefix list: in one state of the source, two devices of one class have
// the same runs over the stretch, no other row there, and the same default
// row — so checked against equal contracts there, they yield the same
// violations but for the device they name. Group and Bits mean what the
// source says they mean (see bgp.Synth.RunClass); Role keeps the roles
// apart.
type RunClass struct {
	Role  topology.Role
	Group int
	Bits  uint64
}

// Cover is what a longest-prefix match of one address over run tables
// needs from the prefix list they index: the positions whose prefix
// contains the address, in the order a match prefers them. NewCover scans
// the list once, so a walk that looks one address up on many devices pays
// for the scan once and each device O(log runs) (see RunTable.Lookup).
type Cover struct {
	addr ipnet.Addr
	// at lists the positions containing addr, longest prefix first and, of
	// equal prefixes, the last position first: the order Expand's rows
	// would win in.
	at []coverPos
}

type coverPos struct {
	pos    int
	prefix ipnet.Prefix
}

// NewCover returns the cover of address a in prefixes.
func NewCover(prefixes []topology.HostedPrefix, a ipnet.Addr) Cover {
	c := Cover{addr: a}
	for i, hp := range prefixes {
		if hp.Prefix.Contains(a) {
			c.at = append(c.at, coverPos{i, hp.Prefix})
		}
	}
	slices.SortFunc(c.at, func(x, y coverPos) int {
		if x.prefix.Bits != y.prefix.Bits {
			return int(y.prefix.Bits) - int(x.prefix.Bits)
		}
		return y.pos - x.pos
	})
	return c
}

// Span returns the stretch [lo, hi) of positions the cover lies in, empty
// when no prefix of the list contains its address: the runs a lookup can
// read (see rcdc.RunSource.TableRuns).
func (c Cover) Span() (lo, hi int) {
	if len(c.at) == 0 {
		return 0, 0
	}
	lo, hi = c.at[0].pos, c.at[0].pos+1
	for _, p := range c.at[1:] {
		lo, hi = min(lo, p.pos), max(hi, p.pos+1)
	}
	return lo, hi
}

// Lookup is the longest-prefix match of the cover's address over the table
// rt stands for — the entry rt.Expand(prefixes).Lookup finds, for the
// prefix list the cover was found in — without expanding it: the longest
// row of Rows containing the address (the last of equal ones), against the
// run holding the first position of the cover that any run holds, found
// by binary search. Rows come before runs in Expand, so a run wins a tie.
// rt needs runs over the cover's Span only. The entry's NextHops are rt's,
// shared and read only.
func (rt RunTable) Lookup(c Cover) (Entry, bool) {
	row := -1
	for i, e := range rt.Rows {
		if e.Prefix.Contains(c.addr) && (row < 0 || e.Prefix.Bits >= rt.Rows[row].Prefix.Bits) {
			row = i
		}
	}
	for _, p := range c.at {
		if row >= 0 && p.prefix.Bits < rt.Rows[row].Prefix.Bits {
			break
		}
		if r, ok := rt.run(p.pos); ok {
			return Entry{Prefix: p.prefix, NextHops: r.NextHops}, true
		}
	}
	if row < 0 {
		return Entry{}, false
	}
	return rt.Rows[row], true
}

// run returns the run holding position pos, if one does.
func (rt RunTable) run(pos int) (Run, bool) {
	lo, hi := 0, len(rt.Runs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rt.Runs[m].Hi <= pos {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(rt.Runs) && rt.Runs[lo].Lo <= pos {
		return rt.Runs[lo], true
	}
	return Run{}, false
}
