// Package fib models the forwarding information base of §2.2: the per-device
// table mapping destination prefixes to sets of ECMP next hops, consulted by
// longest-prefix match. It also implements the textual routing-table format
// of Figure 2 (parse and print), which is the wire format the RCDC routing
// table puller collects from devices.
package fib

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/topology"
)

// Entry is one routing rule: packets matching Prefix (under longest-prefix
// match) are forwarded to any one of NextHops.
type Entry struct {
	Prefix ipnet.Prefix
	// NextHops identifies the ECMP next-hop neighbors by device ID.
	NextHops []topology.DeviceID
	// Connected marks a locally attached prefix (the device's own VLAN);
	// such entries terminate forwarding and have no next hops.
	Connected bool
}

// Table is the FIB of one device.
type Table struct {
	Device  topology.DeviceID
	Entries []Entry

	index *ipnet.Index // Entries by prefix; built lazily, dropped by Add and Sort
}

// NewTable returns an empty FIB for the device.
func NewTable(dev topology.DeviceID) *Table {
	return &Table{Device: dev}
}

// Add appends an entry. Entries may be added in any order; lookups use
// longest-prefix match regardless.
func (t *Table) Add(e Entry) {
	t.Entries = append(t.Entries, e)
	t.index = nil
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.Entries) }

// Get returns the entry exactly matching the prefix; of several such
// entries, the last.
func (t *Table) Get(p ipnet.Prefix) (*Entry, bool) {
	i, ok := t.Index().Get(p)
	if !ok {
		return nil, false
	}
	return &t.Entries[i], true
}

// Lookup performs longest-prefix match for a destination address, per §2.2.
func (t *Table) Lookup(a ipnet.Addr) (*Entry, bool) {
	i, ok := t.Index().Lookup(a)
	if !ok {
		return nil, false
	}
	return &t.Entries[i], true
}

// Index exposes the sorted prefix index over entry positions; used by the
// RCDC checker (§2.5.2). Code that edits Entries directly — rather than
// through Add or Sort — must do so before the first query.
func (t *Table) Index() *ipnet.Index {
	if t.index == nil {
		t.index = ipnet.NewIndex(len(t.Entries), func(i int) ipnet.Prefix { return t.Entries[i].Prefix })
	}
	return t.index
}

// Default returns the default-route entry (0.0.0.0/0), if present.
func (t *Table) Default() (*Entry, bool) {
	return t.Get(ipnet.Prefix{})
}

// Sort orders entries by prefix (address, then length). The text format
// and golden tests rely on this canonical order.
func (t *Table) Sort() {
	sort.Slice(t.Entries, func(i, j int) bool {
		return t.Entries[i].Prefix.Compare(t.Entries[j].Prefix) < 0
	})
	t.index = nil
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	out := NewTable(t.Device)
	out.Entries = make([]Entry, len(t.Entries))
	for i, e := range t.Entries {
		out.Entries[i] = Entry{
			Prefix:    e.Prefix,
			NextHops:  append([]topology.DeviceID(nil), e.NextHops...),
			Connected: e.Connected,
		}
	}
	return out
}

// WriteText renders the table in the routing-table format of Figure 2.
// Next hops are printed as the peer interface addresses resolved through
// the topology.
func (t *Table) WriteText(w io.Writer, topo *topology.Topology) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "VRF name: default\n")
	fmt.Fprintf(bw, "Codes: C - connected, S - static, K - kernel,\n")
	fmt.Fprintf(bw, "       B E - eBGP\n")
	fmt.Fprintf(bw, "Gateway of last resort:\n")
	cp := t.Clone()
	cp.Sort()
	for _, e := range cp.Entries {
		if e.Connected {
			fmt.Fprintf(bw, " C   %s is directly connected\n", e.Prefix)
			continue
		}
		fmt.Fprintf(bw, " B E %s [200/0]", e.Prefix)
		for i, nh := range e.NextHops {
			l, ok := topo.LinkBetween(t.Device, nh)
			if !ok {
				return fmt.Errorf("fib: device %d has next hop %d with no link", t.Device, nh)
			}
			_, peerAddr := l.Peer(t.Device)
			if i == 0 {
				fmt.Fprintf(bw, " via %s\n", peerAddr)
			} else {
				fmt.Fprintf(bw, "%*s via %s\n", len(" B E  [200/0]")+len(e.Prefix.String()), "", peerAddr)
			}
		}
		if len(e.NextHops) == 0 {
			fmt.Fprintf(bw, "\n")
		}
	}
	return bw.Flush()
}

// ParseText parses a routing table in the Figure 2 format back into a
// Table, resolving next-hop interface addresses to devices through the
// topology.
func ParseText(r io.Reader, dev topology.DeviceID, topo *topology.Topology) (*Table, error) {
	t := NewTable(dev)
	sc := bufio.NewScanner(r)
	var cur *Entry
	lineNo := 0
	flush := func() {
		if cur != nil {
			t.Entries = append(t.Entries, *cur)
			cur = nil
		}
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "VRF") ||
			strings.HasPrefix(line, "Codes") || strings.HasPrefix(line, "Gateway") ||
			strings.HasPrefix(line, "B E -") || strings.HasPrefix(line, "O -"):
			continue
		}
		if strings.HasPrefix(line, "C ") {
			flush()
			fields := strings.Fields(line)
			if len(fields) < 2 {
				return nil, fmt.Errorf("fib: line %d: bad connected route", lineNo)
			}
			p, err := ipnet.ParsePrefix(fields[1])
			if err != nil {
				return nil, fmt.Errorf("fib: line %d: %v", lineNo, err)
			}
			t.Entries = append(t.Entries, Entry{Prefix: p, Connected: true})
			continue
		}
		if strings.HasPrefix(line, "B E ") {
			flush()
			rest := strings.TrimSpace(line[len("B E "):])
			fields := strings.Fields(rest)
			if len(fields) < 1 {
				return nil, fmt.Errorf("fib: line %d: bad route", lineNo)
			}
			p, err := ipnet.ParsePrefix(fields[0])
			if err != nil {
				return nil, fmt.Errorf("fib: line %d: %v", lineNo, err)
			}
			cur = &Entry{Prefix: p}
			// The first next hop may follow on the same line.
			if i := strings.Index(rest, "via "); i >= 0 {
				if err := addVia(cur, rest[i:], topo, lineNo); err != nil {
					return nil, err
				}
			}
			continue
		}
		if strings.HasPrefix(line, "via ") {
			if cur == nil {
				return nil, fmt.Errorf("fib: line %d: 'via' outside a route", lineNo)
			}
			if err := addVia(cur, line, topo, lineNo); err != nil {
				return nil, err
			}
			continue
		}
		return nil, fmt.Errorf("fib: line %d: unrecognized line %q", lineNo, line)
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

func addVia(e *Entry, s string, topo *topology.Topology, lineNo int) error {
	s = strings.TrimPrefix(s, "via ")
	s = strings.TrimSpace(strings.SplitN(s, ",", 2)[0])
	a, err := ipnet.ParseAddr(s)
	if err != nil {
		return fmt.Errorf("fib: line %d: bad next hop %q", lineNo, s)
	}
	dev, ok := topo.DeviceByAddr(a)
	if !ok {
		return fmt.Errorf("fib: line %d: next hop %s is not a known interface", lineNo, s)
	}
	e.NextHops = append(e.NextHops, dev)
	return nil
}
