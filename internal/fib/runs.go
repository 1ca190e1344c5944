package fib

import "dcvalidate/internal/topology"

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
