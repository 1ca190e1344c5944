// Package contracts implements the device contract generator of §2.4: the
// automatic derivation of per-device forwarding intent from architectural
// metadata. A local forwarding contract names a destination prefix and the
// exact set of ECMP next hops every packet matching that prefix must be
// forwarded to. Contracts come in two kinds:
//
//   - A specific contract covers one hosted VLAN prefix and requires a
//     non-default route with exactly the expected next hops. Packets that
//     would fall through to the default route violate it — this is what
//     flags the missing specific announcements in the §2.6.2 migration
//     incident even though default routing still delivered the traffic.
//
//   - A default contract covers 0.0.0.0/0, i.e. the complement of all
//     specific prefixes, and requires the device's default route to carry
//     exactly the expected (fully redundant) uplink set.
//
// Contracts are generated from the expected topology recorded in the
// metadata service and deliberately ignore current link state (§2.4):
// correctness must hold across state fluctuations, and deviations are
// exactly what RCDC is built to flag.
package contracts

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/topology"
)

// Kind distinguishes default from specific contracts.
type Kind uint8

const (
	// Specific contracts state expectations for concrete hosted prefixes.
	Specific Kind = iota
	// Default contracts state expectations for the default route.
	Default
)

func (k Kind) String() string {
	if k == Default {
		return "default"
	}
	return "specific"
}

// Contract is a local forwarding contract for one device (§2.4).
type Contract struct {
	Device   topology.DeviceID
	Kind     Kind
	Prefix   ipnet.Prefix // 0.0.0.0/0 for default contracts
	NextHops []topology.DeviceID
}

// DeviceContracts bundles every contract of one device. The generator
// emits the default contract, if any, first, then the specific contracts in
// facts.Prefixes order.
type DeviceContracts struct {
	Device    topology.DeviceID
	Contracts []Contract
}

// Default returns the index of the default contract of a generated set, if
// the device has one.
func (dc DeviceContracts) Default() (int, bool) {
	return 0, len(dc.Contracts) > 0 && dc.Contracts[0].Kind == Default
}

// Overlapping appends to dst, in contract order, the indices of the
// specific contracts whose prefix contains or is contained in p: the
// contracts whose verdict can depend on a routing rule at p. It searches a
// generated set over a flat address plan (ascending, pairwise disjoint
// prefixes), which is where row scopes exist (see package delta).
func (dc DeviceContracts) Overlapping(dst []int, p ipnet.Prefix) []int {
	cs := dc.Contracts
	if _, ok := dc.Default(); ok {
		cs = cs[1:]
	}
	skip := len(dc.Contracts) - len(cs)
	lo, hi := ipnet.OverlapRun(len(cs), func(i int) ipnet.Prefix { return cs[i].Prefix }, p)
	for i := lo; i < hi; i++ {
		dst = append(dst, i+skip)
	}
	return dst
}

// Generator derives contracts from metadata facts.
type Generator struct {
	facts *metadata.Facts

	// Opt-in per-device memoization keyed on the facts' intent generation:
	// intent edits invalidate, link-state changes do not (facts never see
	// them). Off by default — the full-sweep paths generate transiently so
	// memory stays O(one device); long-lived incremental generators enable
	// it to amortize repeated Runs and ForDevice calls on the same dirty
	// devices.
	memo bool

	// mu serializes building the state of a new intent generation.
	mu    sync.Mutex
	state atomic.Pointer[genState]
}

// genState is what a generator knows of one intent generation: where the
// facts' prefixes lie (see layout) and, with memoization on, each device's
// memo slot, indexed by device ID and filled on first use.
type genState struct {
	gen  uint64
	lay  *layout
	memo []atomic.Pointer[memoEntry]
}

// memoEntry is one device's memoized contracts: its runs, and their
// expansion once a ForDevice caller has asked for it.
type memoEntry struct {
	runs DeviceRuns
	once sync.Once
	dc   DeviceContracts
}

// NewGenerator returns a contract generator over the given facts snapshot.
func NewGenerator(f *metadata.Facts) *Generator {
	return &Generator{facts: f}
}

// EnableMemo turns on per-device memoization. Safe for concurrent callers.
// The memo keeps each device's contracts as runs (see Runs) — a handful
// per device — and expands a device's set only for a ForDevice caller,
// which then shares the expansion: a caller that only asks for runs keeps
// memory at one run list per distinct device generated since the last
// intent change.
func (g *Generator) EnableMemo() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.memo = true
	g.state.Store(nil)
}

// current returns the state of the facts' current intent generation,
// building it on first use.
func (g *Generator) current() *genState {
	gen := g.facts.Generation()
	if st := g.state.Load(); st != nil && st.gen == gen {
		return st
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if st := g.state.Load(); st != nil && st.gen == gen {
		return st
	}
	st := &genState{gen: gen, lay: newLayout(g.facts)}
	if g.memo {
		st.memo = make([]atomic.Pointer[memoEntry], len(g.facts.Devices))
	}
	g.state.Store(st)
	return st
}

// entry returns id's memo entry, generating its runs on a miss — nil when
// memoization is off — and the prefix layout of the current intent
// generation.
func (g *Generator) entry(id topology.DeviceID) (*memoEntry, *layout) {
	st := g.current()
	if id < 0 || int(id) >= len(st.memo) {
		return nil, st.lay
	}
	slot := &st.memo[id]
	if e := slot.Load(); e != nil {
		return e, st.lay
	}
	e := &memoEntry{runs: g.runs(st.lay, id, nil)}
	e.runs.Runs = slices.Clip(e.runs.Runs)
	if !slot.CompareAndSwap(nil, e) {
		e = slot.Load()
	}
	return e, st.lay
}

// ForDevice generates the comprehensive contract set for one device,
// implementing the rules of §2.4.1 (ToR), §2.4.2 (leaf), §2.4.3 (spine),
// plus the regional-spine specific contracts §2.4.4 relies on.
//
// Next-hop slices are sorted once and shared between the contracts that
// expect the same set (a ToR expects its leaves for every prefix); treat
// Contract.NextHops as immutable. With memoization enabled the whole
// DeviceContracts value is shared across calls under the same invariant.
func (g *Generator) ForDevice(id topology.DeviceID) DeviceContracts {
	e, l := g.entry(id)
	if e == nil {
		return g.runs(l, id, nil).Expand(g.facts.Prefixes, nil)
	}
	e.once.Do(func() { e.dc = e.runs.Expand(g.facts.Prefixes, nil) })
	return e.dc
}

// Generate derives one device's contracts from the facts, bypassing the
// memo, into buf's backing array (grown if too small): a sweep that checks
// one device at a time hands the previous device's Contracts back in and
// generates the whole fleet through one buffer. The contracts are valid
// until buf is reused; their NextHops slices are never reused. It is the
// expansion of the device's runs (see Runs).
func (g *Generator) Generate(id topology.DeviceID, buf []Contract) DeviceContracts {
	return g.runs(g.current().lay, id, nil).Expand(g.facts.Prefixes, buf)
}

// Run is a stretch of a device's specific contracts: one contract at each
// position Lo..Hi-1 of facts.Prefixes, all expecting NextHops.
type Run struct {
	Lo, Hi   int
	NextHops []topology.DeviceID
}

// DeviceRuns is one device's contract set written as runs: the default
// contract's expected next hops (none: no default contract), then maximal
// runs of specific contracts that expect one next-hop slice, ascending.
type DeviceRuns struct {
	Device  topology.DeviceID
	Default []topology.DeviceID
	Runs    []Run
}

// Len returns the number of contracts the runs stand for.
func (dr DeviceRuns) Len() int {
	n := 0
	if len(dr.Default) > 0 {
		n++
	}
	for _, r := range dr.Runs {
		n += r.Hi - r.Lo
	}
	return n
}

// Expand writes the contracts the runs stand for into buf's backing array
// (grown if too small), in DeviceContracts order: the default contract,
// then one specific contract per run position of prefixes, the list the
// runs index.
func (dr DeviceRuns) Expand(prefixes []metadata.PrefixFacts, buf []Contract) DeviceContracts {
	dc := DeviceContracts{Device: dr.Device, Contracts: buf[:0]}
	if n := dr.Len(); cap(buf) < n {
		dc.Contracts = make([]Contract, 0, n)
	}
	if len(dr.Default) > 0 {
		dc.Contracts = append(dc.Contracts, Contract{Device: dr.Device, Kind: Default, NextHops: dr.Default})
	}
	for _, r := range dr.Runs {
		for i := r.Lo; i < r.Hi; i++ {
			dc.Contracts = append(dc.Contracts, Contract{Device: dr.Device, Kind: Specific, Prefix: prefixes[i].Prefix, NextHops: r.NextHops})
		}
	}
	return dc
}

// Runs derives one device's contracts from the facts as runs over
// facts.Prefixes, appending them to buf[:0]. Every contract a role expects
// of a stretch of prefixes names one shared next-hop slice — a ToR's
// uplinks, a leaf's uplinks or the hosting ToR, a spine's leaf in the
// hosting cluster — so a run is a stretch of one slice, and a ToR's ~all
// contracts are one or two runs. A memoizing generator returns the memoized
// runs themselves, shared — read only — and leaves buf alone.
func (g *Generator) Runs(id topology.DeviceID, buf []Run) DeviceRuns {
	e, l := g.entry(id)
	if e != nil {
		return e.runs
	}
	return g.runs(l, id, buf)
}

// runs derives one device's runs from the facts, with l locating its
// prefixes: no role reads every prefix position. A ToR finds its own
// prefixes and a leaf its own cluster's by search; a spine walks the
// cluster stretches.
func (g *Generator) runs(l *layout, id topology.DeviceID, buf []Run) DeviceRuns {
	df := g.facts.Device(id)
	n := len(g.facts.Prefixes)
	dr := DeviceRuns{Device: id, Runs: buf[:0]}
	uplinks := l.uplinksOf(df)
	switch df.Role {
	case topology.RoleToR:
		// Default contract: all neighboring leaves.
		dr.Default = uplinks
		// Specific contract for every datacenter prefix not hosted here,
		// next hops the neighboring leaves. A prefix's owner says where it
		// is hosted: the facts list each hosted prefix once, under its ToR.
		at := 0
		for _, own := range keyed(l.byToR, int(id)) {
			dr.add(at, own.lo, uplinks)
			at = own.hi
		}
		dr.add(at, n, uplinks)

	case topology.RoleLeaf:
		// Default contract: the neighboring spines.
		dr.Default = uplinks
		// Specific contracts: same-cluster prefixes go straight to the
		// hosting ToR — one shared slice per ToR — everything else goes to
		// the spines.
		at := 0
		for _, c := range keyed(l.byCluster, df.Cluster) {
			dr.add(at, c.lo, uplinks)
			for _, t := range within(l.tors, c.lo, c.hi) {
				dr.add(t.lo, t.hi, l.one(topology.DeviceID(t.key)))
			}
			at = c.hi
		}
		dr.add(at, n, uplinks)

	case topology.RoleSpine:
		// Default contract: the neighboring regional spines.
		dr.Default = uplinks
		// Specific contracts: the neighboring leaves of the hosting
		// cluster (with the plane structure, exactly one per cluster).
		cluster := func(nb metadata.Neighbor) int { return g.facts.Device(nb.Device).Cluster }
		byClusterDevice := func(a, b metadata.Neighbor) int {
			return cmp.Or(cmp.Compare(cluster(a), cluster(b)), cmp.Compare(a.Device, b.Device))
		}
		down := df.Downlinks
		if !slices.IsSortedFunc(down, byClusterDevice) {
			down = slices.Clone(down)
			slices.SortFunc(down, byClusterDevice)
		}
		for _, c := range l.clusters {
			lo := sort.Search(len(down), func(i int) bool { return cluster(down[i]) >= c.key })
			hi := lo + sort.Search(len(down)-lo, func(i int) bool { return cluster(down[lo+i]) > c.key })
			switch {
			case hi-lo == 1:
				dr.add(c.lo, c.hi, l.one(down[lo].Device))
			case hi > lo:
				dr.add(c.lo, c.hi, devIDs(down[lo:hi]))
			}
		}

	case topology.RoleRegionalSpine:
		// No default contract: the regional spine's default points into
		// the regional network, outside the datacenter model. Specific
		// contracts expect every neighboring spine, since each spine
		// reaches every cluster through its plane leaf.
		dr.add(0, n, devIDs(df.Downlinks))
	}
	return dr
}

// layout locates the facts' prefixes by owner, whatever order the facts
// list them in: built once per intent generation in O(prefixes), it lets
// a device's runs be found by search instead of by a scan of every prefix.
type layout struct {
	// tors cuts the prefix list into maximal stretches of one hosting ToR
	// and cluster (key: the ToR), clusters into maximal stretches of one
	// hosting cluster (key: the cluster); both in position order.
	tors, clusters []stretch
	// byToR and byCluster are the same stretches ordered by key, then
	// position.
	byToR, byCluster []stretch
	// ident[d] is d: the one-hop next-hop sets are its one-element
	// slices, shared by every device and run that expects them.
	ident []topology.DeviceID
	// uplinks[d] is device d's uplinks, ascending: the set its default
	// contract and every run toward the rest of the fleet expect, derived
	// once per intent generation rather than once per device pulled.
	uplinks [][]topology.DeviceID
}

// stretch is the positions [lo, hi) of the prefix list, all with one key.
type stretch struct{ lo, hi, key int }

func newLayout(f *metadata.Facts) *layout {
	l := &layout{ident: make([]topology.DeviceID, len(f.Devices)), uplinks: make([][]topology.DeviceID, len(f.Devices))}
	for i := range l.ident {
		l.ident[i] = topology.DeviceID(i)
	}
	n := 0
	for i := range f.Devices {
		n += len(f.Devices[i].Uplinks)
	}
	flat := make([]topology.DeviceID, 0, n)
	for i := range f.Devices {
		df := &f.Devices[i]
		if df.ID < 0 || int(df.ID) >= len(l.uplinks) {
			continue
		}
		at := len(flat)
		for _, nb := range df.Uplinks {
			flat = append(flat, nb.Device)
		}
		slices.Sort(flat[at:])
		l.uplinks[df.ID] = flat[at:len(flat):len(flat)]
	}
	for i, p := range f.Prefixes {
		if n := len(l.tors); n > 0 && l.tors[n-1].key == int(p.ToR) && f.Prefixes[i-1].Cluster == p.Cluster {
			l.tors[n-1].hi++
		} else {
			l.tors = append(l.tors, stretch{i, i + 1, int(p.ToR)})
		}
		if n := len(l.clusters); n > 0 && l.clusters[n-1].key == p.Cluster {
			l.clusters[n-1].hi++
		} else {
			l.clusters = append(l.clusters, stretch{i, i + 1, p.Cluster})
		}
	}
	byKey := func(a, b stretch) int { return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.lo, b.lo)) }
	l.byToR, l.byCluster = slices.Clone(l.tors), slices.Clone(l.clusters)
	slices.SortFunc(l.byToR, byKey)
	slices.SortFunc(l.byCluster, byKey)
	return l
}

// one returns the next-hop set {d}, shared when d is a device of the facts.
func (l *layout) one(d topology.DeviceID) []topology.DeviceID {
	if d < 0 || int(d) >= len(l.ident) {
		return []topology.DeviceID{d}
	}
	return l.ident[d : d+1 : d+1]
}

// uplinksOf returns a device's uplinks, ascending: shared when it is a
// device of the facts.
func (l *layout) uplinksOf(df *metadata.DeviceFacts) []topology.DeviceID {
	if df.ID < 0 || int(df.ID) >= len(l.uplinks) {
		return devIDs(df.Uplinks)
	}
	return l.uplinks[df.ID]
}

// keyed returns the stretches of sorted — ordered by key — with key k.
func keyed(sorted []stretch, k int) []stretch {
	lo := sort.Search(len(sorted), func(i int) bool { return sorted[i].key >= k })
	hi := lo + sort.Search(len(sorted)-lo, func(i int) bool { return sorted[lo+i].key > k })
	return sorted[lo:hi]
}

// within returns the stretches of st — in position order — that lie inside
// positions [lo, hi), whose edges are edges of st's stretches too.
func within(st []stretch, lo, hi int) []stretch {
	i := sort.Search(len(st), func(i int) bool { return st[i].lo >= lo })
	j := i + sort.Search(len(st)-i, func(k int) bool { return st[i+k].lo >= hi })
	return st[i:j]
}

// Prefixes returns the prefix list Runs indexes: the facts' hosted
// prefixes.
func (g *Generator) Prefixes() []metadata.PrefixFacts { return g.facts.Prefixes }

// All generates contracts for every device in the datacenter.
func (g *Generator) All() []DeviceContracts {
	out := make([]DeviceContracts, 0, len(g.facts.Devices))
	for i := range g.facts.Devices {
		out = append(out, g.ForDevice(g.facts.Devices[i].ID))
	}
	return out
}

// Count returns the total number of contracts across all devices; the
// paper's "billions of reachability invariants" reduce to this many local
// checks.
func (g *Generator) Count() int {
	n := 0
	for i := range g.facts.Devices {
		n += g.Runs(g.facts.Devices[i].ID, nil).Len()
	}
	return n
}

// add puts specific contracts expecting hops at positions [lo, hi),
// extending the last run when that ends at lo with the same slice. A device
// with no expected next hops toward a prefix (possible in degenerate
// topologies) has no forwarding obligation.
func (dr *DeviceRuns) add(lo, hi int, hops []topology.DeviceID) {
	if lo == hi || len(hops) == 0 {
		return
	}
	if n := len(dr.Runs); n > 0 && dr.Runs[n-1].Hi == lo && sameSlice(dr.Runs[n-1].NextHops, hops) {
		dr.Runs[n-1].Hi = hi
		return
	}
	dr.Runs = append(dr.Runs, Run{Lo: lo, Hi: hi, NextHops: hops})
}

// sameSlice reports whether two non-empty slices are the same slice.
func sameSlice(a, b []topology.DeviceID) bool { return len(a) == len(b) && &a[0] == &b[0] }

func devIDs(ns []metadata.Neighbor) []topology.DeviceID {
	out := make([]topology.DeviceID, len(ns))
	for i, n := range ns {
		out[i] = n.Device
	}
	slices.Sort(out)
	return out
}
