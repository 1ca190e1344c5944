package fib

import (
	"strings"
	"testing"

	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/topology"
)

func mkTable() *Table {
	t := NewTable(0)
	t.Add(Entry{Prefix: ipnet.Prefix{}, NextHops: []topology.DeviceID{1, 2}})
	t.Add(Entry{Prefix: ipnet.MustParsePrefix("10.0.0.0/8"), NextHops: []topology.DeviceID{3}})
	t.Add(Entry{Prefix: ipnet.MustParsePrefix("10.3.129.224/28"), NextHops: []topology.DeviceID{4, 5}})
	t.Add(Entry{Prefix: ipnet.MustParsePrefix("10.3.0.0/16"), Connected: true})
	return t
}

func TestLookupLPM(t *testing.T) {
	tbl := mkTable()
	cases := []struct {
		addr string
		want string
	}{
		{"10.3.129.230", "10.3.129.224/28"}, // the Figure 2 example
		{"10.3.129.240", "10.3.0.0/16"},
		{"10.4.0.1", "10.0.0.0/8"},
		{"11.0.0.1", "0.0.0.0/0"},
	}
	for _, c := range cases {
		e, ok := tbl.Lookup(ipnet.MustParseAddr(c.addr))
		if !ok {
			t.Errorf("Lookup(%s) missed", c.addr)
			continue
		}
		if e.Prefix.String() != c.want {
			t.Errorf("Lookup(%s) = %v, want %s", c.addr, e.Prefix, c.want)
		}
	}
}

func TestLookupNoDefault(t *testing.T) {
	tbl := NewTable(0)
	tbl.Add(Entry{Prefix: ipnet.MustParsePrefix("10.0.0.0/8"), NextHops: []topology.DeviceID{1}})
	if _, ok := tbl.Lookup(ipnet.MustParseAddr("11.0.0.1")); ok {
		t.Error("lookup without default should miss")
	}
}

func TestGetAndDefault(t *testing.T) {
	tbl := mkTable()
	if e, ok := tbl.Get(ipnet.MustParsePrefix("10.0.0.0/8")); !ok || len(e.NextHops) != 1 {
		t.Error("Get exact failed")
	}
	if _, ok := tbl.Get(ipnet.MustParsePrefix("10.0.0.0/9")); ok {
		t.Error("Get of absent prefix succeeded")
	}
	d, ok := tbl.Default()
	if !ok || len(d.NextHops) != 2 {
		t.Error("Default failed")
	}
}

func TestSortAndClone(t *testing.T) {
	tbl := mkTable()
	cl := tbl.Clone()
	cl.Sort()
	if cl.Entries[0].Prefix != (ipnet.Prefix{}) {
		t.Error("default not first after sort")
	}
	// Clone is deep: mutating the clone leaves the original intact.
	cl.Entries[0].NextHops[0] = 99
	if tbl.Entries[0].NextHops[0] == 99 {
		t.Error("Clone shares next-hop storage")
	}
}

func TestAddInvalidatesTrie(t *testing.T) {
	tbl := NewTable(0)
	tbl.Add(Entry{Prefix: ipnet.MustParsePrefix("10.0.0.0/8"), NextHops: []topology.DeviceID{1}})
	if _, ok := tbl.Lookup(ipnet.MustParseAddr("10.0.0.1")); !ok {
		t.Fatal("first lookup failed")
	}
	tbl.Add(Entry{Prefix: ipnet.MustParsePrefix("10.0.0.0/24"), NextHops: []topology.DeviceID{2}})
	e, ok := tbl.Lookup(ipnet.MustParseAddr("10.0.0.1"))
	if !ok || e.Prefix.Bits != 24 {
		t.Error("index not rebuilt after Add")
	}
	// The same prefix added again: the later row answers.
	tbl.Add(Entry{Prefix: ipnet.MustParsePrefix("10.0.0.0/24"), NextHops: []topology.DeviceID{3}})
	tbl.Add(Entry{Prefix: ipnet.Prefix{}, NextHops: []topology.DeviceID{4}})
	if e, ok := tbl.Get(ipnet.MustParsePrefix("10.0.0.0/24")); !ok || e.NextHops[0] != 3 {
		t.Errorf("Get of a duplicated prefix = %+v, want the last row", e)
	}
	if e, ok := tbl.Default(); !ok || e.NextHops[0] != 4 {
		t.Errorf("Default = %+v", e)
	}
}

func TestParseTextErrors(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	cases := []string{
		"B E notaprefix [200/0] via 100.64.0.1\n",
		"B E 10.0.0.0/8 [200/0] via 100.64.0.999\n",
		"via 100.64.0.1\n", // via outside a route
		"garbage line\n",
		"B E 10.0.0.0/8 [200/0] via 1.2.3.4\n", // unknown interface
	}
	for i, c := range cases {
		if _, err := ParseText(strings.NewReader(c), 0, topo); err == nil {
			t.Errorf("case %d: expected parse error for %q", i, c)
		}
	}
}

func TestParseTextHeaderTolerance(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	l := topo.Link(0)
	text := "VRF name: default\n" +
		"Codes: C - connected, S - static, K - kernel,\n" +
		"       B E - eBGP\n" +
		"Gateway of last resort:\n" +
		" B E 0.0.0.0/0 [200/0] via " + l.AddrB.String() + "\n" +
		"\n"
	tbl, err := ParseText(strings.NewReader(text), l.A, topo)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 || tbl.Entries[0].NextHops[0] != l.B {
		t.Errorf("parsed table = %+v", tbl.Entries)
	}
}

func TestWriteTextRejectsUnknownNextHop(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	tbl := NewTable(topo.ToRs()[0])
	// Next hop is a device with no link to the ToR (another ToR).
	tbl.Add(Entry{Prefix: ipnet.Prefix{}, NextHops: []topology.DeviceID{topo.ToRs()[1]}})
	var sb strings.Builder
	if err := tbl.WriteText(&sb, topo); err == nil {
		t.Error("WriteText accepted a next hop with no link")
	}
}
