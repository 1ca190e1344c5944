package rcdc

import (
	"fmt"

	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/topology"
)

// GlobalChecker verifies the end-to-end intent directly — all-pairs ToR
// reachability (INTENT 1) along shortest paths (INTENT 2) with the maximal
// redundant path set (INTENT 3) — by walking each prefix's forwarding cone
// hop by hop, following every ECMP choice. It reads a hop's route in one
// of two ways:
//
//   - from a materialized snapshot of every device's FIB (NewGlobalChecker):
//     the straw-man the paper's local technique replaces (§2.4), whose
//     memory scales with the global snapshot — the scalability argument of
//     §1. It is the independent oracle for Claim 1 and for the slice walk,
//     and E3's baseline.
//   - from the source's runs, device by device as the walk reaches it
//     (NewSliceChecker): the one run covering the prefix, plus the device's
//     other rows. No table is expanded and nothing is indexed, so a query
//     holds one device's runs at a time — the (source, destination-prefix)
//     slice is the unit of work.
type GlobalChecker struct {
	topo   *topology.Topology
	tables []*fib.Table // the snapshot, indexed by device; nil for a slice walk
	runs   RunSource    // a slice walk's source
}

// NewGlobalChecker materializes the snapshot from the source.
func NewGlobalChecker(topo *topology.Topology, source fib.Source) (*GlobalChecker, error) {
	g := &GlobalChecker{topo: topo, tables: make([]*fib.Table, len(topo.Devices))}
	for i := range topo.Devices {
		t, err := source.Table(topology.DeviceID(i))
		if err != nil {
			return nil, fmt.Errorf("rcdc: snapshot device %d: %w", i, err)
		}
		g.tables[i] = t
	}
	return g, nil
}

// NewSliceChecker returns a checker that walks src's runs and copies no
// table: each hop reads the device's runs through TableRuns — over the
// positions of the walked prefix, or the source's own runs, read only —
// and matches the prefix's address there (fib.RunTable.Lookup). Its
// answers are the snapshot's over the same state, and it is safe for
// concurrent use as far as src's TableRuns is (bgp.Synth's is).
func NewSliceChecker(topo *topology.Topology, src RunSource) *GlobalChecker {
	return &GlobalChecker{topo: topo, runs: src}
}

// PairResult describes forwarding from one source ToR toward one prefix.
type PairResult struct {
	Src     topology.DeviceID
	Prefix  ipnet.Prefix
	Dst     topology.DeviceID // hosting ToR
	Reaches bool
	// MinHops/MaxHops over all ECMP path choices actually reaching Dst.
	MinHops, MaxHops int
	// Paths is the number of distinct forwarding paths reaching Dst.
	Paths int
	// Dropped reports whether some ECMP branch drops or loops.
	Dropped bool
}

// Intent is the global property level being verified.
type Intent int

const (
	// Reachability: every ToR pair reaches each other (INTENT 1).
	Reachability Intent = iota
	// ShortestPaths: additionally all used paths have the intended length
	// — 2 device hops intra-cluster, 4 inter-cluster (INTENT 2).
	ShortestPaths
	// FullRedundancy: additionally the number of redundant paths is
	// maximal for the deployed topology (INTENT 3): one path per cluster
	// leaf intra-cluster, leaves × spines-per-plane inter-cluster.
	FullRedundancy
)

// walker memoizes the forwarding trace toward one prefix, shared across
// source ToRs (one dynamic program over the snapshot or the runs per
// prefix).
type walker struct {
	g    *GlobalChecker
	hp   topology.HostedPrefix
	addr ipnet.Addr
	memo map[topology.DeviceID]*walkResult
	slab []walkResult // memo's results, allocated walkChunk at a time
	// A slice walk's cover of addr, the positions it lies in, and the
	// buffer the source's runs come in.
	cover  fib.Cover
	lo, hi int
	buf    fib.RunTable
}

// walkChunk is how many results a walker allocates at once: about the
// devices of one pair's forwarding cone.
const walkChunk = 64

// looped is the result of a branch that revisits a device on its own
// path; shared, read only.
var looped = walkResult{dropped: true, done: true}

type walkResult struct {
	reaches        bool
	minH, maxH     int
	paths          int
	dropped        bool
	done, visiting bool
}

func (g *GlobalChecker) newWalker(hp topology.HostedPrefix) *walker {
	w := &walker{g: g, hp: hp, addr: hp.Prefix.First(),
		memo: make(map[topology.DeviceID]*walkResult, walkChunk)}
	if g.tables == nil {
		w.cover = fib.NewCover(g.runs.RunPrefixes(), w.addr)
		w.lo, w.hi = w.cover.Span()
	}
	return w
}

// route returns d's forwarding entry toward the walker's address: the
// snapshot table's longest-prefix match, or the same match over d's runs.
func (w *walker) route(d topology.DeviceID) (fib.Entry, bool) {
	if w.g.tables != nil {
		e, ok := w.g.tables[d].Lookup(w.addr)
		if !ok {
			return fib.Entry{}, false
		}
		return *e, true
	}
	w.buf = w.g.runs.TableRuns(d, w.lo, w.hi, w.buf)
	return w.buf.Lookup(w.cover)
}

func (w *walker) walk(d topology.DeviceID) *walkResult {
	if m, ok := w.memo[d]; ok {
		if m.visiting && !m.done {
			// Forwarding loop: treat this branch as a drop.
			return &looped
		}
		return m
	}
	if len(w.slab) == cap(w.slab) {
		w.slab = make([]walkResult, 0, walkChunk)
	}
	w.slab = append(w.slab, walkResult{visiting: true})
	m := &w.slab[len(w.slab)-1]
	w.memo[d] = m
	defer func() { m.done = true; m.visiting = false }()

	if d == w.hp.ToR {
		m.reaches, m.paths = true, 1
		return m
	}
	e, ok := w.route(d)
	if !ok || len(e.NextHops) == 0 {
		m.dropped = true
		return m
	}
	if e.Connected {
		// Delivered locally at a device that is not the hosting ToR;
		// cannot happen with distinct VLANs, treat as a drop.
		m.dropped = true
		return m
	}
	m.minH = 1 << 30
	for _, nh := range e.NextHops {
		sub := w.walk(nh)
		if sub.dropped {
			m.dropped = true
		}
		if sub.reaches {
			m.reaches = true
			if sub.minH+1 < m.minH {
				m.minH = sub.minH + 1
			}
			if sub.maxH+1 > m.maxH {
				m.maxH = sub.maxH + 1
			}
			m.paths += sub.paths
		}
	}
	if !m.reaches {
		m.minH = 0
	}
	return m
}

func pairResult(src topology.DeviceID, hp topology.HostedPrefix, m *walkResult) PairResult {
	res := PairResult{
		Src: src, Prefix: hp.Prefix, Dst: hp.ToR,
		Reaches: m.reaches, Dropped: m.dropped,
		MinHops: m.minH, MaxHops: m.maxH, Paths: m.paths,
	}
	if !res.Reaches {
		res.MinHops = -1
	}
	return res
}

// CheckPair traces forwarding from src toward the given hosted prefix by
// following every ECMP choice.
func (g *GlobalChecker) CheckPair(src topology.DeviceID, hp topology.HostedPrefix) PairResult {
	w := g.newWalker(hp)
	return pairResult(src, hp, w.walk(src))
}

// expected path shape for a src ToR and a hosted prefix.
func (g *GlobalChecker) expected(src topology.DeviceID, hp topology.HostedPrefix) (hops, paths int) {
	p := g.topo.Params
	if g.topo.Device(src).Cluster == hp.Cluster {
		return 2, p.LeavesPerCluster
	}
	return 4, p.LeavesPerCluster * p.SpinesPerPlane
}

// Check verifies the selected intent level for all ToR pairs, returning
// the failing pairs (empty means the intent holds). Over the snapshot this
// is the whole-snapshot computation whose cost and memory footprint RCDC's
// local decomposition avoids.
func (g *GlobalChecker) Check(level Intent) []PairResult {
	var failures []PairResult
	for _, hp := range g.topo.HostedPrefixes() {
		w := g.newWalker(hp)
		for _, src := range g.topo.ToRs() {
			if src == hp.ToR {
				continue
			}
			r := pairResult(src, hp, w.walk(src))
			wantHops, wantPaths := g.expected(src, hp)
			ok := r.Reaches && !r.Dropped
			if ok && level >= ShortestPaths {
				ok = r.MinHops == wantHops && r.MaxHops == wantHops
			}
			if ok && level >= FullRedundancy {
				ok = r.Paths == wantPaths
			}
			if !ok {
				failures = append(failures, r)
			}
		}
	}
	return failures
}

// CounterexamplePath finds one concrete forwarding trajectory from src
// toward the hosted prefix that fails to deliver: a hop-by-hop ECMP
// branch ending where the packet is dropped (no covering route), looped
// (revisits a device on its own path), or delivered at the wrong device.
// The returned path lists every device the packet traverses including the
// failure point; reason is "no-route", "loop", or "wrong-delivery". ok is
// false when every ECMP branch delivers — there is no counterexample.
//
// The serving layer turns this into the counterexample packet of a failed
// reachability query: a header addressed into the prefix plus the switch
// where it dies.
func (g *GlobalChecker) CounterexamplePath(src topology.DeviceID, hp topology.HostedPrefix) (path []topology.DeviceID, reason string, ok bool) {
	w := g.newWalker(hp)
	onPath := make(map[topology.DeviceID]bool)
	var walk func(d topology.DeviceID) ([]topology.DeviceID, string, bool)
	walk = func(d topology.DeviceID) ([]topology.DeviceID, string, bool) {
		if d == hp.ToR {
			return nil, "", false // delivered: this branch is no counterexample
		}
		e, found := w.route(d)
		if !found || len(e.NextHops) == 0 {
			return []topology.DeviceID{d}, "no-route", true
		}
		if e.Connected {
			return []topology.DeviceID{d}, "wrong-delivery", true
		}
		onPath[d] = true
		defer delete(onPath, d)
		for _, nh := range e.NextHops {
			if onPath[nh] {
				return []topology.DeviceID{d, nh}, "loop", true
			}
			if sub, why, bad := walk(nh); bad {
				return append([]topology.DeviceID{d}, sub...), why, true
			}
		}
		return nil, "", false
	}
	return walk(src)
}

// Pairs returns the number of (src ToR, prefix) pairs Check examines.
func (g *GlobalChecker) Pairs() int {
	return len(g.topo.HostedPrefixes()) * (len(g.topo.ToRs()) - 1)
}
