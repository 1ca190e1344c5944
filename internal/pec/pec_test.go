package pec

import (
	"reflect"
	"slices"
	"testing"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// diffOne checks one device through both engines and fails on any field
// difference, including Missing/Unexpected order and nil-vs-empty shape.
func diffOne(t *testing.T, exact bool, tbl *fib.Table, dc contracts.DeviceContracts, role topology.Role) {
	t.Helper()
	want, err := rcdc.TrieChecker{Exact: exact}.CheckDevice(tbl, dc, role)
	if err != nil {
		t.Fatalf("trie: %v", err)
	}
	got, err := (&Checker{Exact: exact}).CheckDevice(tbl, dc, role)
	if err != nil {
		t.Fatalf("pec: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("engines diverge (exact=%v)\ntrie: %v\npec:  %v", exact, want, got)
	}
}

// TestPECMatchesTrieFigure3 sweeps the Figure 3 topology healthy and with
// per-device corruptions covering every violation kind.
func TestPECMatchesTrieFigure3(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	facts := metadata.FromTopology(topo)
	gen := contracts.NewGenerator(facts)
	synth := bgp.NewSynth(topo, nil)
	for _, exact := range []bool{false, true} {
		for _, df := range facts.Devices {
			tbl, err := synth.Table(df.ID)
			if err != nil {
				t.Fatal(err)
			}
			dc := gen.ForDevice(df.ID)
			diffOne(t, exact, tbl, dc, df.Role)

			if len(tbl.Entries) == 0 {
				continue
			}
			// Drop the last specific route: MissingRoute territory.
			cut := tbl.Clone()
			cut.Entries = cut.Entries[:len(cut.Entries)-1]
			diffOne(t, exact, cut, dc, df.Role)

			// Corrupt every ECMP set to a single bogus hop: WrongNextHops
			// plus DefaultMismatch everywhere, exercising multi-violation
			// ordering.
			bogus := tbl.Clone()
			for i := range bogus.Entries {
				bogus.Entries[i].NextHops = []topology.DeviceID{topology.DeviceID(i % 3)}
			}
			diffOne(t, exact, bogus, dc, df.Role)

			// Strip the default route: MissingDefault and degraded
			// MissingRoute remainders.
			nodef := tbl.Clone()
			kept := nodef.Entries[:0]
			for _, e := range nodef.Entries {
				if !e.Prefix.IsDefault() {
					kept = append(kept, e)
				}
			}
			nodef.Entries = kept
			diffOne(t, exact, nodef, dc, df.Role)
		}
	}
}

// TestPECEdgeCases pins the corners the fast paths must hand off
// correctly: /0 specific contracts, duplicate prefixes (last wins, like
// trie insertion), shadowed bad rules, connected routes, and ancestors
// covering uncontained ranges.
func TestPECEdgeCases(t *testing.T) {
	p := func(a uint32, bits uint8) ipnet.Prefix { return ipnet.PrefixFrom(ipnet.Addr(a), bits) }
	hops := func(ids ...topology.DeviceID) []topology.DeviceID { return ids }
	type tc struct {
		name    string
		entries []fib.Entry
		cons    []contracts.Contract
	}
	cases := []tc{
		{
			name: "zero-len specific contract with default present",
			entries: []fib.Entry{
				{Prefix: p(0, 0), NextHops: hops(1, 2)},
				{Prefix: p(0x0a000000, 8), NextHops: hops(1)},
			},
			cons: []contracts.Contract{
				{Device: 7, Kind: contracts.Specific, Prefix: p(0, 0), NextHops: hops(1, 2)},
			},
		},
		{
			name: "zero-len specific contract without default",
			entries: []fib.Entry{
				{Prefix: p(0x0a000000, 8), NextHops: hops(1)},
			},
			cons: []contracts.Contract{
				{Device: 7, Kind: contracts.Specific, Prefix: p(0, 0), NextHops: hops(1)},
			},
		},
		{
			name: "duplicate prefix last wins",
			entries: []fib.Entry{
				{Prefix: p(0x0a000000, 24), NextHops: hops(9)},
				{Prefix: p(0x0a000000, 24), NextHops: hops(1, 2)},
			},
			cons: []contracts.Contract{
				{Device: 7, Kind: contracts.Specific, Prefix: p(0x0a000000, 24), NextHops: hops(1, 2)},
			},
		},
		{
			name: "shadowed bad rule inside healthy cover",
			entries: []fib.Entry{
				{Prefix: p(0x0a000000, 23), NextHops: hops(1, 2)},
				{Prefix: p(0x0a000000, 24), NextHops: hops(9)},
				{Prefix: p(0x0a000100, 24), NextHops: hops(1)},
			},
			cons: []contracts.Contract{
				{Device: 7, Kind: contracts.Specific, Prefix: p(0x0a000000, 23), NextHops: hops(1, 2)},
			},
		},
		{
			name: "connected route with no hops",
			entries: []fib.Entry{
				{Prefix: p(0x0a000000, 24), Connected: true},
				{Prefix: p(0, 0), NextHops: hops(3)},
			},
			cons: []contracts.Contract{
				{Device: 7, Kind: contracts.Specific, Prefix: p(0x0a000000, 24), NextHops: hops(3)},
				{Device: 7, Kind: contracts.Default, Prefix: p(0, 0), NextHops: hops(3)},
			},
		},
		{
			name: "ancestor-only coverage good and bad",
			entries: []fib.Entry{
				{Prefix: p(0x0a000000, 16), NextHops: hops(4, 5)},
			},
			cons: []contracts.Contract{
				{Device: 7, Kind: contracts.Specific, Prefix: p(0x0a000100, 24), NextHops: hops(4, 5)},
				{Device: 7, Kind: contracts.Specific, Prefix: p(0x0a000200, 24), NextHops: hops(6)},
			},
		},
		{
			name: "partial cover falls through to missing route",
			entries: []fib.Entry{
				{Prefix: p(0x0a000000, 25), NextHops: hops(4)},
				{Prefix: p(0, 0), NextHops: hops(4, 5)},
			},
			cons: []contracts.Contract{
				{Device: 7, Kind: contracts.Specific, Prefix: p(0x0a000000, 24), NextHops: hops(4)},
			},
		},
		{
			name: "unsorted and duplicated hop sets",
			entries: []fib.Entry{
				{Prefix: p(0x0a000000, 24), NextHops: hops(5, 4, 5)},
				{Prefix: p(0, 0), NextHops: hops(5, 4)},
			},
			cons: []contracts.Contract{
				{Device: 7, Kind: contracts.Specific, Prefix: p(0x0a000000, 24), NextHops: hops(4, 5)},
				{Device: 7, Kind: contracts.Default, Prefix: p(0, 0), NextHops: hops(4, 5)},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, exact := range []bool{false, true} {
				tbl := fib.NewTable(7)
				tbl.Entries = append(tbl.Entries, c.entries...)
				dc := contracts.DeviceContracts{Device: 7, Contracts: c.cons}
				diffOne(t, exact, tbl, dc, topology.RoleLeaf)
			}
		})
	}
}

// TestPECCacheAndInvalidate locks the content-hash cache behavior: equal
// content hits regardless of pointer identity, changed content misses,
// Invalidate forces re-atomization.
func TestPECCacheAndInvalidate(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	facts := metadata.FromTopology(topo)
	gen := contracts.NewGenerator(facts)
	synth := bgp.NewSynth(topo, nil)
	dev := facts.Devices[0].ID
	tbl, err := synth.Table(dev)
	if err != nil {
		t.Fatal(err)
	}
	dc := gen.ForDevice(dev)
	role := facts.Devices[0].Role

	c := &Checker{}
	if _, err := c.CheckDevice(tbl, dc, role); err != nil {
		t.Fatal(err)
	}
	// Fresh clone, same content: must hit.
	if _, err := c.CheckDevice(tbl.Clone(), dc, role); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Atomizations != 1 || st.CacheHits != 1 {
		t.Fatalf("want 1 atomization + 1 hit, got %+v", st)
	}
	// Changed content: miss.
	mut := tbl.Clone()
	mut.Entries[0].NextHops = []topology.DeviceID{0}
	if _, err := c.CheckDevice(mut, dc, role); err != nil {
		t.Fatal(err)
	}
	if st = c.Stats(); st.Atomizations != 2 {
		t.Fatalf("changed table should re-atomize, got %+v", st)
	}
	// Invalidate: same content misses once, then hits again.
	c.Invalidate([]topology.DeviceID{dev})
	if _, err := c.CheckDevice(mut.Clone(), dc, role); err != nil {
		t.Fatal(err)
	}
	if st = c.Stats(); st.Atomizations != 3 {
		t.Fatalf("invalidated device should re-atomize, got %+v", st)
	}
	if st.Devices != 1 {
		t.Fatalf("latest-only cache should hold 1 device, got %+v", st)
	}
}

// TestCheckRowsLeavesDeviceStateAlone: a fragment check (what a row-scoped
// re-check hands the engine) agrees with the trie on the fragment and
// neither reads nor replaces the device's cached atomization.
func TestCheckRowsLeavesDeviceStateAlone(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	topo.FailLink(topo.ToRs()[1], topo.ClusterLeaves(0)[0])
	facts := metadata.FromTopology(topo)
	gen := contracts.NewGenerator(facts)
	synth := bgp.NewSynth(topo, nil)
	dev := topo.ToRs()[0]
	tbl, err := synth.Table(dev)
	if err != nil {
		t.Fatal(err)
	}
	dc := gen.ForDevice(dev)
	role := facts.Device(dev).Role

	c := &Checker{Exact: true} // a thinned ECMP set is a violation
	if _, err := c.CheckDevice(tbl, dc, role); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()

	// The fragment: the contracts on the failed ToR's prefixes, against the
	// rows they read.
	var sub []contracts.Contract
	for _, p := range topo.Device(topo.ToRs()[1]).HostedPrefixes {
		for _, i := range dc.Overlapping(nil, p) {
			sub = append(sub, dc.Contracts[i])
		}
	}
	frag := fib.NewTable(dev)
	for _, e := range tbl.Entries {
		if e.Prefix.IsDefault() || slices.ContainsFunc(topo.Device(topo.ToRs()[1]).HostedPrefixes, e.Prefix.Overlaps) {
			frag.Entries = append(frag.Entries, e)
		}
	}
	fragDC := contracts.DeviceContracts{Device: dev, Contracts: sub}
	got, err := c.CheckRows(frag, fragDC, role)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rcdc.TrieChecker{Exact: true}.CheckDevice(frag, fragDC, role)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("fragment verdicts:\n got %v\nwant %v", got, want)
	}
	if after := c.Stats(); after != before {
		t.Fatalf("fragment check moved the engine's state:\nbefore %+v\n after %+v", before, after)
	}
	if _, err := c.CheckDevice(tbl.Clone(), dc, role); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.CacheHits != before.CacheHits+1 || st.Atomizations != before.Atomizations {
		t.Fatalf("whole-device check after a fragment should hit the cache: %+v", st)
	}
}

// TestClassesLPMOracle cross-checks every class's owner against
// longest-prefix lookups at its endpoints.
func TestClassesLPMOracle(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	facts := metadata.FromTopology(topo)
	gen := contracts.NewGenerator(facts)
	synth := bgp.NewSynth(topo, nil)
	c := &Checker{}
	for _, df := range facts.Devices {
		tbl, err := synth.Table(df.ID)
		if err != nil {
			t.Fatal(err)
		}
		classes := c.Classes(tbl, gen.ForDevice(df.ID))
		if len(classes) == 0 {
			t.Fatalf("device %d: no classes", df.ID)
		}
		prev := uint64(0)
		for _, cl := range classes {
			if uint64(cl.Lo) != prev {
				t.Fatalf("device %d: classes not contiguous at %v", df.ID, cl.Lo)
			}
			prev = uint64(cl.Hi) + 1
			for _, a := range []ipnet.Addr{cl.Lo, cl.Hi} {
				e, ok := tbl.Lookup(a)
				if cl.HasOwner {
					if !ok || e.Prefix != cl.Owner {
						t.Fatalf("device %d addr %v: class owner %v, LPM %v (ok=%v)", df.ID, a, cl.Owner, e, ok)
					}
				} else if ok && !e.Prefix.IsDefault() {
					t.Fatalf("device %d addr %v: ownerless class but LPM hit %v", df.ID, a, e.Prefix)
				}
			}
		}
		if prev != 1<<32 {
			t.Fatalf("device %d: classes do not cover the address space (end %d)", df.ID, prev)
		}
	}
}
