package bgp

import (
	"slices"
	"sort"
	"sync"

	"dcvalidate/internal/delta"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/topology"
)

// ConfigUnbounded reports whether any device configuration alters route
// acceptance or session liveness — ASN overrides, default-route rejection,
// disabled sessions. Blast-radius analysis (internal/delta) must fall back
// to whole-DC revalidation under such configs; plain ECMP truncation
// (MaxECMPPaths) is localization-safe and does not count.
func ConfigUnbounded(cfg map[topology.DeviceID]*DeviceConfig) bool {
	for _, c := range cfg {
		if c != nil && (c.ASNOverride != 0 || c.RejectDefaultIn || c.SessionsDisabled) {
			return true
		}
	}
	return false
}

// Synth computes per-device converged EBGP state analytically, exploiting
// the plane-structured Clos topology: a spine learns each prefix from
// exactly one leaf (the hosting cluster's leaf on the spine's plane), so
// best-path selection collapses to reachability along the hierarchy. FIBs
// are produced lazily per device in O(prefixes + degree) time and memory —
// the property that lets RCDC-style local validation run on 10^4-device
// datacenters without a global snapshot.
//
// Synth honors the same DeviceConfig knobs as Sim and is cross-validated
// against it on randomized topologies (see synth_test.go).
type Synth struct {
	topo *topology.Topology
	cfg  map[topology.DeviceID]*DeviceConfig

	prefixes []topology.HostedPrefix
	// classes[class[p]][k] reports whether the k'th spine (position in
	// topo.Spines(), a contiguous ID block) has a route for prefix p
	// (spineHas). Prefixes whose rows are equal share one class: a healthy
	// fleet has a single class, and each fault splits off a few more.
	class   []int32
	classes [][]bool
	// blocks cuts the prefix list into maximal stretches of one class and
	// one hosting cluster. Outside its own cluster a device forwards every
	// prefix of a block alike, which is what lets runs derive next hops
	// once per block instead of once per prefix.
	blocks []block
	// direct[p*LeavesPerCluster+plane] reports whether the hosting
	// cluster's leaf on that plane has the direct route to prefix p.
	direct          []bool
	spineBase       topology.DeviceID
	spineHasDefault map[topology.DeviceID]bool
	leafHasDefault  map[topology.DeviceID]bool
	// leafSpines[leaf] lists the spines (as spineHas positions) of the
	// leaf's plane that it has a live session to.
	leafSpines [][]int
	// fastAccept short-circuits AS-path acceptance checks when no device
	// configuration overrides exist: under the default ASN allocation the
	// propagation rules never self-loop, so every constructed path is
	// accepted. (Cross-validated against Sim.)
	fastAccept bool

	// Opt-in per-device table cache keyed by topology generation, holding
	// each table as runs: Refresh consumes the change journal and patches
	// or evicts only the blast radius, so steady-state pulls of unaffected
	// devices cost a copy of a handful of runs. Off by default.
	mu       sync.Mutex
	cache    map[topology.DeviceID]*fib.RunTable
	cacheGen uint64

	// Metrics, when non-nil, counts table-cache hits and misses (cache
	// enabled only). Set before serving pulls; recording is atomic.
	Metrics *Metrics

	// UnionECMP disables MaxECMPPaths truncation so every synthesized
	// next-hop set is the union of all ECMP tie-break choices — the
	// ACORN-style route-nondeterminism abstraction the failure explorer
	// uses to cover "any tie-break" in a single validation run (and to
	// keep Clos symmetry intact: deterministic truncation picks hops by
	// device-ID order, which position permutations do not preserve). Set
	// before the first Table call; cached tables are not re-cut.
	UnionECMP bool
}

// EnableTableCache turns on per-device table caching. A cached table is
// kept as runs (fib.RunTable: the connected and default rows, plus maximal
// stretches of hosted prefixes forwarded alike), which TableRuns serves
// as they are and Table and Rows expand on demand. Cached tables are
// brought up to date by Refresh using the topology change journal: inside
// the blast radius of the changes since the last Refresh, a device with a
// row scope has exactly those rows re-derived in its runs (see patch) and
// a device dirty as a whole is evicted (everything is, if the radius is
// unbounded or the journal was truncated). Call only on long-lived sources
// that serve repeated incremental pulls; memory grows to one table per
// distinct device pulled, a handful of runs each rather than a row per
// hosted prefix.
func (s *Synth) EnableTableCache() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache = make(map[topology.DeviceID]*fib.RunTable)
	s.cacheGen = s.topo.Generation()
}

// NewSynth precomputes the tier reachability sets. Precomputation is
// O(prefixes × spinesPerPlane + links), after which Table is cheap. The
// sets snapshot the topology state at construction; call Refresh after
// mutating link state to bring them up to date.
func NewSynth(topo *topology.Topology, cfg map[topology.DeviceID]*DeviceConfig) *Synth {
	s := &Synth{topo: topo, cfg: cfg, prefixes: topo.HostedPrefixes()}
	if len(topo.Spines()) > 0 {
		s.spineBase = topo.Spines()[0]
	}
	s.Refresh()
	return s
}

// Refresh recomputes the precomputed reachability sets from the current
// topology and configuration state. The monitoring loop calls this at the
// start of every pull cycle so synthesized FIBs track live state. The
// derived sets are always rebuilt (they are cheap, and direct config-map
// edits leave no journal trace); only the opt-in table cache is brought
// up to date selectively via the change journal. Refresh must not run
// concurrently with pulls.
func (s *Synth) Refresh() { s.RefreshDelta(nil, 0) }

// RefreshDelta is Refresh for a caller that already holds ds, the blast
// radius of every change journaled after generation since up to now: the
// table cache is synchronized from ds instead of computing the radius a
// second time. A ds whose window starts after the cache's last
// synchronization (or a nil ds) is ignored and the cache reads the
// journal itself.
func (s *Synth) RefreshDelta(ds *delta.Set, since uint64) {
	dirty := s.cacheWindow(ds, since)
	s.recompute()
	s.syncCache(dirty)
}

func (s *Synth) recompute() {
	topo := s.topo
	s.fastAccept = len(s.cfg) == 0
	spp := topo.Params.SpinesPerPlane
	nSpines := len(topo.Spines())

	planes := topo.Params.LeavesPerCluster
	s.direct = make([]bool, len(s.prefixes)*planes)
	s.class = make([]int32, len(s.prefixes))
	s.classes, s.blocks = nil, nil
	intern := make(map[string]int32)
	has := make([]bool, nSpines)
	key := make([]byte, nSpines)
	for pi, hp := range s.prefixes {
		clear(has)
		// The hosting cluster's leaf on each plane has the prefix iff its
		// link to the hosting ToR is live; each spine of that plane has it
		// iff additionally its link to that leaf is live.
		for plane, leaf := range topo.ClusterLeaves(hp.Cluster) {
			if !s.leafHasDirect(leaf, hp.ToR) {
				continue
			}
			s.direct[pi*planes+plane] = true
			for k := plane * spp; k < (plane+1)*spp; k++ {
				if s.live(topo.Spines()[k], leaf) {
					has[k] = true
				}
			}
		}
		// Neighbouring prefixes usually share a class: try the last one
		// before the intern table.
		c, ok := int32(0), false
		if pi > 0 {
			c = s.class[pi-1]
			ok = slices.Equal(has, s.classes[c])
		}
		if !ok {
			for k, h := range has {
				key[k] = 0
				if h {
					key[k] = 1
				}
			}
			if c, ok = intern[string(key)]; !ok {
				c = int32(len(s.classes))
				s.classes = append(s.classes, slices.Clone(has))
				intern[string(key)] = c
			}
		}
		s.class[pi] = c
		if n := len(s.blocks); n > 0 && s.class[pi-1] == c && s.prefixes[pi-1].Cluster == hp.Cluster {
			s.blocks[n-1].hi++
		} else {
			s.blocks = append(s.blocks, block{lo: pi, hi: pi + 1, cluster: hp.Cluster})
		}
	}

	s.spineHasDefault = make(map[topology.DeviceID]bool)
	for _, sp := range topo.Spines() {
		if s.config(sp).RejectDefaultIn {
			continue
		}
		for _, rs := range topo.RegionalSpines() {
			if s.live(sp, rs) {
				s.spineHasDefault[sp] = true
				break
			}
		}
	}
	s.leafHasDefault = make(map[topology.DeviceID]bool)
	s.leafSpines = make([][]int, len(topo.Devices))
	flat := make([]int, 0, len(topo.Leaves())*spp)
	for _, leaf := range topo.Leaves() {
		lo := len(flat)
		for _, sp := range s.planeSpines(leaf) {
			if s.live(leaf, sp) {
				flat = append(flat, s.spineIdx(sp))
			}
		}
		s.leafSpines[leaf] = flat[lo:len(flat):len(flat)]
		if s.config(leaf).RejectDefaultIn {
			continue
		}
		for _, sp := range s.planeSpines(leaf) {
			if s.live(leaf, sp) && s.spineHasDefault[sp] {
				s.leafHasDefault[leaf] = true
				break
			}
		}
	}
}

// cacheWindow returns the blast radius the table cache is behind by — nil
// when caching is off or the cache is in sync — and marks the cache
// synchronized to the current generation. Unbounded change sets (journal
// truncation, device-level changes, acceptance-altering configs) come
// back as a full set.
func (s *Synth) cacheWindow(ds *delta.Set, since uint64) *delta.Set {
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.topo.Generation()
	if s.cache == nil || gen == s.cacheGen {
		return nil
	}
	behind := s.cacheGen
	s.cacheGen = gen
	if ds != nil && since <= behind {
		return ds
	}
	return delta.Since(s.topo, behind, delta.Options{UnboundedConfig: ConfigUnbounded(s.cfg)})
}

// syncCache applies a blast radius to the cached runs, after recompute:
// row-scoped devices are patched, whole devices evicted.
func (s *Synth) syncCache(dirty *delta.Set) {
	if dirty == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var patched, evicted int
	for d, rt := range s.cache {
		sc, ok := dirty.Scope(d)
		switch {
		case !ok:
		case sc.Whole:
			delete(s.cache, d)
			evicted++
		default:
			s.patch(rt, sc.Rows)
			patched += len(sc.Rows)
		}
	}
	s.Metrics.observeSync(patched, evicted)
}

// patch brings a cached device's runs up to date with a row scope. The
// default row is re-derived when in scope. Each stretch of positions the
// other scoped rows cover is re-derived by the per-block rule TableRuns
// uses and spliced in: the runs are split at the stretch's edges and equal
// neighbours merged back, so the result is what a fresh TableRuns returns,
// at a cost in the runs the stretch touches. Rows are replaced, never
// written, so run tables handed out earlier stay intact. Positions are
// found by binary search: a row scope implies a flat address plan (see
// package delta).
func (s *Synth) patch(rt *fib.RunTable, scope []ipnet.Prefix) {
	d := rt.Device
	dev := s.topo.Device(d)
	if len(scope) > 0 && scope[0].IsDefault() { // scopes are ascending: the default row sorts first
		rt.Rows = s.rows(d, dev)
		scope = scope[1:]
	}
	hopsToward := s.specifics(d, dev)
	at := func(i int) ipnet.Prefix { return s.prefixes[i].Prefix }
	var fresh []fib.Run
	for len(scope) > 0 {
		lo, hi := ipnet.OverlapRun(len(s.prefixes), at, scope[0])
		for scope = scope[1:]; len(scope) > 0; scope = scope[1:] {
			l, h := ipnet.OverlapRun(len(s.prefixes), at, scope[0])
			if l > hi {
				break
			}
			hi = max(hi, h)
		}
		if lo < hi {
			fresh = s.appendRuns(fresh[:0], d, dev, hopsToward, lo, hi)
			rt.Runs = spliceRuns(rt.Runs, lo, hi, fresh)
		}
	}
}

// spliceRuns replaces what runs say about positions [lo, hi) with fresh,
// runs inside [lo, hi): the runs straddling an edge keep their part outside
// it, and equal neighbours merge across both edges.
func spliceRuns(runs []fib.Run, lo, hi int, fresh []fib.Run) []fib.Run {
	i := sort.Search(len(runs), func(k int) bool { return runs[k].Hi >= lo })
	j := sort.Search(len(runs), func(k int) bool { return runs[k].Lo > hi })
	var mid []fib.Run // only runs[i] can start before lo, only runs[j-1] end after hi
	if i < j && runs[i].Lo < lo {
		mid = append(mid, fib.Run{Lo: runs[i].Lo, Hi: min(runs[i].Hi, lo), NextHops: runs[i].NextHops})
	}
	for _, r := range fresh {
		mid = mergeRun(mid, r)
	}
	if i < j && runs[j-1].Hi > hi {
		mid = mergeRun(mid, fib.Run{Lo: max(runs[j-1].Lo, hi), Hi: runs[j-1].Hi, NextHops: runs[j-1].NextHops})
	}
	return slices.Replace(runs, i, j, mid...)
}

// mergeRun appends r, extending the last run instead when r continues it
// with equal next hops.
func mergeRun(runs []fib.Run, r fib.Run) []fib.Run {
	if n := len(runs); n > 0 && runs[n-1].Hi == r.Lo && slices.Equal(runs[n-1].NextHops, r.NextHops) {
		runs[n-1].Hi = r.Hi
		return runs
	}
	return append(runs, r)
}

// block is a stretch [lo, hi) of the prefix list with one class and one
// hosting cluster.
type block struct{ lo, hi, cluster int }

// spineHas returns, for hosted prefix pi, whether each spine has a route.
func (s *Synth) spineHas(pi int) []bool { return s.classes[s.class[pi]] }

func (s *Synth) spineIdx(sp topology.DeviceID) int { return int(sp - s.spineBase) }

func (s *Synth) config(d topology.DeviceID) DeviceConfig {
	if c, ok := s.cfg[d]; ok {
		return *c
	}
	return DeviceConfig{}
}

func (s *Synth) asn(d topology.DeviceID) uint32 {
	if c, ok := s.cfg[d]; ok && c.ASNOverride != 0 {
		return c.ASNOverride
	}
	return s.topo.Device(d).ASN
}

// live reports whether the link between a and b carries a BGP session:
// physically up, not admin shut, and neither platform has Software Bug 2.
func (s *Synth) live(a, b topology.DeviceID) bool {
	l, ok := s.topo.LinkBetween(a, b)
	if !ok || !l.Live() {
		return false
	}
	if s.fastAccept {
		return true
	}
	return !s.config(a).SessionsDisabled && !s.config(b).SessionsDisabled
}

// leafHasDirect reports whether a leaf has the direct (intra-cluster) route
// to a prefix hosted at tor.
func (s *Synth) leafHasDirect(leaf, tor topology.DeviceID) bool {
	return s.live(leaf, tor)
}

// planeSpines returns the spines a leaf connects to (its plane).
func (s *Synth) planeSpines(leaf topology.DeviceID) []topology.DeviceID {
	plane := s.topo.Device(leaf).Plane
	spp := s.topo.Params.SpinesPerPlane
	return s.topo.Spines()[plane*spp : (plane+1)*spp]
}

// hostLeaf returns the hosting cluster's leaf on the given plane.
func (s *Synth) hostLeaf(cluster, plane int) topology.DeviceID {
	return s.topo.ClusterLeaves(cluster)[plane]
}

// acceptsPath mirrors Sim's AS-path loop check for device d.
func (s *Synth) acceptsPath(d topology.DeviceID, path []uint32) bool {
	own := s.asn(d)
	tor := s.topo.Device(d).Role == topology.RoleToR
	for i, a := range path {
		if a == own && !(tor && i == len(path)-1) {
			return false
		}
	}
	return true
}

func (s *Synth) truncate(d topology.DeviceID, nhs []topology.DeviceID) []topology.DeviceID {
	slices.Sort(nhs) // built from ascending neighbor lists: usually a no-op pass
	if m := s.config(d).MaxECMPPaths; m > 0 && len(nhs) > m && !s.UnionECMP {
		nhs = nhs[:m]
	}
	return nhs
}

// Table computes the converged FIB of one device, implementing fib.Source:
// its runs (TableRuns), expanded into a fresh table the caller owns. The
// rows of a run share one next-hop slice — a ToR's ~all rows name the same
// leaves — so callers must treat the NextHops slices as immutable, same as
// contracts.
func (s *Synth) Table(d topology.DeviceID) (*fib.Table, error) {
	return s.runTable(d).Expand(s.prefixes), nil
}

// Rows answers a row query without expanding the table: the rows of d's
// converged FIB whose prefix contains or is contained in one of the given
// prefixes, plus the default row, in table order. That is everything a
// contract on one of those prefixes can read (rcdc.RowSource). The entries
// are copies; their NextHops slices are shared and immutable. Like patch,
// Rows finds positions by binary search and so requires the flat address
// plan that every row scope implies.
func (s *Synth) Rows(d topology.DeviceID, overlapping []ipnet.Prefix) ([]fib.Entry, error) {
	rt := s.runTable(d)
	var out []fib.Entry
	for _, e := range rt.Rows { // connected rows and the default
		if e.Prefix.IsDefault() || overlapsAny(e.Prefix, overlapping) {
			out = append(out, e)
		}
	}
	// Queries arrive in any order and may share positions; emit each row
	// once, in table order.
	var idx []int
	for _, q := range overlapping {
		lo, hi := ipnet.OverlapRun(len(s.prefixes), func(i int) ipnet.Prefix { return s.prefixes[i].Prefix }, q)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	runs := rt.Runs
	for _, pos := range slices.Compact(idx) {
		for len(runs) > 0 && runs[0].Hi <= pos {
			runs = runs[1:]
		}
		if len(runs) > 0 && runs[0].Lo <= pos {
			out = append(out, fib.Entry{Prefix: s.prefixes[pos].Prefix, NextHops: runs[0].NextHops})
		}
	}
	return out, nil
}

func overlapsAny(p ipnet.Prefix, qs []ipnet.Prefix) bool {
	for _, q := range qs {
		if p.Overlaps(q) {
			return true
		}
	}
	return false
}

// runTable returns d's converged runs: the cache's own (shared — read only)
// when caching is on, a fresh synthesis otherwise.
func (s *Synth) runTable(d topology.DeviceID) fib.RunTable {
	if rt, ok := s.cached(d); ok {
		return rt
	}
	return s.synthRuns(d, nil)
}

// cached returns d's cached runs — shared, read only — synthesizing and
// caching them on a miss; ok is false when caching is off.
func (s *Synth) cached(d topology.DeviceID) (fib.RunTable, bool) {
	s.mu.Lock()
	caching := s.cache != nil
	p, hit := s.cache[d]
	s.mu.Unlock()
	if !caching {
		return fib.RunTable{}, false
	}
	s.Metrics.observeCache(hit)
	if !hit {
		p = &fib.RunTable{}
		*p = s.synthRuns(d, nil)
		p.Runs = slices.Clip(p.Runs)
		s.mu.Lock()
		s.cache[d] = p
		s.mu.Unlock()
	}
	return *p, true
}

// RunPrefixes returns the prefix list TableRuns indexes: the hosted
// prefixes in ToR order.
func (s *Synth) RunPrefixes() []topology.HostedPrefix { return s.prefixes }

// TableRuns returns d's converged table as runs over RunPrefixes (see
// fib.RunTable), appending the runs to buf[:0]: Rows holds the connected
// routes and the default route, and each run is a maximal stretch of
// hosted prefixes d forwards to one next-hop set. Expanding them gives
// exactly what Table returns. With the table cache on, the runs are the
// cached ones (filled on a miss), copied into buf; Rows is shared.
func (s *Synth) TableRuns(d topology.DeviceID, buf []fib.Run) fib.RunTable {
	if rt, ok := s.cached(d); ok {
		rt.Runs = append(buf[:0], rt.Runs...)
		return rt
	}
	return s.synthRuns(d, buf)
}

// synthRuns synthesizes d's runs, appending them to buf[:0].
func (s *Synth) synthRuns(d topology.DeviceID, buf []fib.Run) fib.RunTable {
	dev := s.topo.Device(d)
	return fib.RunTable{Device: d, Rows: s.rows(d, dev),
		Runs: s.appendRuns(buf[:0], d, dev, s.specifics(d, dev), 0, len(s.prefixes))}
}

// rows returns d's rows outside the runs: its connected routes, then its
// default route if it has one.
func (s *Synth) rows(d topology.DeviceID, dev *topology.Device) []fib.Entry {
	rows := make([]fib.Entry, 0, len(dev.HostedPrefixes)+1)
	for _, p := range dev.HostedPrefixes {
		rows = append(rows, fib.Entry{Prefix: p, Connected: true})
	}
	if nhs := s.defaultNextHops(d); len(nhs) > 0 {
		rows = append(rows, fib.Entry{Prefix: ipnet.Prefix{}, NextHops: nhs})
	}
	return rows
}

// appendRuns appends d's runs over positions [lo, hi) of the prefix list
// to runs, in order. Under fastAccept a block outside d's own cluster is
// one set of next hops, derived at its first position in the stretch;
// inside it (and with any configuration) they are per prefix.
func (s *Synth) appendRuns(runs []fib.Run, d topology.DeviceID, dev *topology.Device,
	hopsToward func(dst []topology.DeviceID, pi int) []topology.DeviceID, lo, hi int) []fib.Run {
	local := dev.Role == topology.RoleToR || dev.Role == topology.RoleLeaf
	var hops []topology.DeviceID
	for _, b := range s.blocks[sort.Search(len(s.blocks), func(i int) bool { return s.blocks[i].hi > lo }):] {
		if b.lo >= hi {
			break
		}
		blo, bhi := max(b.lo, lo), min(b.hi, hi)
		if s.fastAccept && !(local && b.cluster == dev.Cluster) {
			hops = hopsToward(hops[:0], blo)
			runs = appendRun(runs, blo, bhi, hops)
			continue
		}
		for pi := blo; pi < bhi; pi++ {
			if s.prefixes[pi].ToR == d {
				continue // connected
			}
			hops = hopsToward(hops[:0], pi)
			runs = appendRun(runs, pi, pi+1, hops)
		}
	}
	return runs
}

// appendRun adds rows at positions [lo, hi) forwarding to hops: it extends
// the last run when that ends at lo with the same next hops, and otherwise
// starts a new one — sharing the last run's next-hop slice when equal (a
// ToR's own prefix splits its "via all my leaves" run in two), else with
// its own copy of hops. A route nobody advertises is absent, so empty hops
// add nothing.
func appendRun(runs []fib.Run, lo, hi int, hops []topology.DeviceID) []fib.Run {
	if len(hops) == 0 {
		return runs
	}
	n := len(runs)
	if n > 0 && slices.Equal(runs[n-1].NextHops, hops) {
		if runs[n-1].Hi == lo {
			runs[n-1].Hi = hi
			return runs
		}
		return append(runs, fib.Run{Lo: lo, Hi: hi, NextHops: runs[n-1].NextHops})
	}
	return append(runs, fib.Run{Lo: lo, Hi: hi, NextHops: slices.Clone(hops)})
}

// specifics returns the function TableRuns derives d's specific rows with: it
// appends d's next hops toward hosted prefix pi to dst, ascending.
// Under the default ASN allocation (fastAccept: no device configuration,
// so every constructed path is accepted and nothing is truncated) what is
// per-device — which neighbors d has a live session to, and which spines
// those reach — is worked out once here rather than once per prefix.
// Otherwise every row goes through specificNextHops.
func (s *Synth) specifics(d topology.DeviceID, dev *topology.Device) func(dst []topology.DeviceID, pi int) []topology.DeviceID {
	if !s.fastAccept {
		return func(dst []topology.DeviceID, pi int) []topology.DeviceID {
			return append(dst, s.specificNextHops(d, pi, s.prefixes[pi])...)
		}
	}
	planes := s.topo.Params.LeavesPerCluster
	viaSpines := func(spines []int) func(dst []topology.DeviceID, pi int) []topology.DeviceID {
		return func(dst []topology.DeviceID, pi int) []topology.DeviceID {
			has := s.spineHas(pi)
			for _, k := range spines {
				if has[k] {
					dst = append(dst, s.spineBase+topology.DeviceID(k))
				}
			}
			return dst
		}
	}
	switch dev.Role {
	case topology.RoleRegionalSpine:
		var spines []int
		for _, sp := range s.topo.Spines() {
			if s.live(d, sp) {
				spines = append(spines, s.spineIdx(sp))
			}
		}
		return viaSpines(spines)
	case topology.RoleSpine:
		// spineHas already holds "the hosting cluster's leaf on my plane
		// has the direct route and my link to it is live".
		k := s.spineIdx(d)
		return func(dst []topology.DeviceID, pi int) []topology.DeviceID {
			if s.spineHas(pi)[k] {
				dst = append(dst, s.hostLeaf(s.prefixes[pi].Cluster, dev.Plane))
			}
			return dst
		}
	case topology.RoleLeaf:
		remote := viaSpines(s.leafSpines[d])
		return func(dst []topology.DeviceID, pi int) []topology.DeviceID {
			hp := &s.prefixes[pi]
			if hp.Cluster != dev.Cluster {
				return remote(dst, pi)
			}
			if s.direct[pi*planes+dev.Plane] {
				dst = append(dst, hp.ToR)
			}
			return dst
		}
	}
	// ToR: via each live leaf that has the route — the direct one inside
	// the cluster, one through any of its live plane spines outside it.
	type leafState struct {
		id     topology.DeviceID
		plane  int
		spines []int
	}
	live := make([]leafState, 0, len(s.topo.ClusterLeaves(dev.Cluster)))
	for _, leaf := range s.topo.ClusterLeaves(dev.Cluster) {
		if s.live(d, leaf) {
			live = append(live, leafState{id: leaf, plane: s.topo.Device(leaf).Plane, spines: s.leafSpines[leaf]})
		}
	}
	return func(dst []topology.DeviceID, pi int) []topology.DeviceID {
		hp := &s.prefixes[pi]
		has := s.spineHas(pi)
		for i := range live {
			ls := &live[i]
			if hp.Cluster == dev.Cluster {
				if s.direct[pi*planes+ls.plane] {
					dst = append(dst, ls.id)
				}
				continue
			}
			for _, k := range ls.spines {
				if has[k] {
					dst = append(dst, ls.id)
					break
				}
			}
		}
		return dst
	}
}

func (s *Synth) defaultNextHops(d topology.DeviceID) []topology.DeviceID {
	dev := s.topo.Device(d)
	cfg := s.config(d)
	if cfg.RejectDefaultIn {
		return nil
	}
	nhs := make([]topology.DeviceID, 0, len(s.topo.LinksOf(d)))
	switch dev.Role {
	case topology.RoleRegionalSpine:
		// The RS's own default points into the regional network, outside
		// the model; its FIB carries no default entry (matching Sim).
		return nil
	case topology.RoleSpine:
		for _, rs := range s.topo.RegionalSpines() {
			if s.live(d, rs) && (s.fastAccept || s.acceptsPath(d, []uint32{s.asn(rs)})) {
				nhs = append(nhs, rs)
			}
		}
	case topology.RoleLeaf:
		for _, sp := range s.planeSpines(d) {
			if s.live(d, sp) && s.spineHasDefault[sp] {
				// Path as advertised by the spine: [spineASN, rsASN].
				if s.fastAccept || s.acceptsPath(d, []uint32{s.asn(sp), s.asn(s.topo.RegionalSpines()[0])}) {
					nhs = append(nhs, sp)
				}
			}
		}
	case topology.RoleToR:
		for _, leaf := range s.topo.ClusterLeaves(dev.Cluster) {
			if s.live(d, leaf) && s.leafHasDefault[leaf] {
				if s.fastAccept {
					nhs = append(nhs, leaf)
					continue
				}
				sp := s.someDefaultSpine(leaf)
				if s.acceptsPath(d, []uint32{s.asn(leaf), s.asn(sp), s.asn(s.topo.RegionalSpines()[0])}) {
					nhs = append(nhs, leaf)
				}
			}
		}
	}
	return s.truncate(d, nhs)
}

// someDefaultSpine returns the lowest-ID spine from which the leaf has the
// default route (the representative path Sim would advertise).
func (s *Synth) someDefaultSpine(leaf topology.DeviceID) topology.DeviceID {
	for _, sp := range s.planeSpines(leaf) {
		if s.live(leaf, sp) && s.spineHasDefault[sp] {
			return sp
		}
	}
	return topology.None
}

func (s *Synth) specificNextHops(d topology.DeviceID, pi int, hp topology.HostedPrefix) []topology.DeviceID {
	dev := s.topo.Device(d)
	torASN := s.asn(hp.ToR)
	has := s.spineHas(pi)
	var nhs []topology.DeviceID
	switch dev.Role {
	case topology.RoleRegionalSpine:
		for _, sp := range s.topo.Spines() {
			if !s.live(d, sp) || !has[s.spineIdx(sp)] {
				continue
			}
			if s.fastAccept {
				nhs = append(nhs, sp)
				continue
			}
			hl := s.hostLeaf(hp.Cluster, s.topo.Device(sp).Plane)
			if s.acceptsPath(d, []uint32{s.asn(sp), s.asn(hl), torASN}) {
				nhs = append(nhs, sp)
			}
		}
	case topology.RoleSpine:
		hl := s.hostLeaf(hp.Cluster, dev.Plane)
		if s.live(d, hl) && s.leafHasDirect(hl, hp.ToR) &&
			(s.fastAccept || s.acceptsPath(d, []uint32{s.asn(hl), torASN})) {
			nhs = append(nhs, hl)
		}
	case topology.RoleLeaf:
		if dev.Cluster == hp.Cluster {
			if s.leafHasDirect(d, hp.ToR) && (s.fastAccept || s.acceptsPath(d, []uint32{torASN})) {
				nhs = append(nhs, hp.ToR)
			}
			break
		}
		hl := s.hostLeaf(hp.Cluster, dev.Plane)
		for _, sp := range s.planeSpines(d) {
			if s.live(d, sp) && has[s.spineIdx(sp)] &&
				(s.fastAccept || s.acceptsPath(d, []uint32{s.asn(sp), s.asn(hl), torASN})) {
				nhs = append(nhs, sp)
			}
		}
	case topology.RoleToR:
		for plane, leaf := range s.topo.ClusterLeaves(dev.Cluster) {
			if !s.live(d, leaf) {
				continue
			}
			var path []uint32
			if dev.Cluster == hp.Cluster {
				if !s.leafHasDirect(leaf, hp.ToR) {
					continue
				}
				if !s.fastAccept {
					path = []uint32{s.asn(leaf), torASN}
				}
			} else {
				// The leaf needs a via-spine route on its plane.
				ok := false
				for _, sp := range s.planeSpines(leaf) {
					if s.live(leaf, sp) && has[s.spineIdx(sp)] {
						if s.fastAccept {
							ok = true
							break
						}
						hl := s.hostLeaf(hp.Cluster, plane)
						if s.acceptsPath(leaf, []uint32{s.asn(sp), s.asn(hl), torASN}) {
							ok = true
							path = []uint32{s.asn(leaf), s.asn(sp), s.asn(hl), torASN}
							break
						}
					}
				}
				if !ok {
					continue
				}
			}
			if s.fastAccept || s.acceptsPath(d, path) {
				nhs = append(nhs, leaf)
			}
		}
	}
	return s.truncate(d, nhs)
}
