package bgp

import (
	"runtime"
	"slices"
	"sort"
	"sync"

	"dcvalidate/internal/delta"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/par"
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
// are produced lazily per device, as runs, in time set by the runs emitted
// and the reachability classes seen rather than the prefix count — the
// property that lets RCDC-style local validation run on 10^4-device
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
	// classRuns cuts the prefix list into maximal stretches of one class.
	// Outside its own cluster a ToR, a leaf or a regional spine forwards a
	// prefix by its class alone, so runs derive those next hops once per
	// class a device sees and emit one run per class run, whatever the
	// number of clusters or prefixes.
	classRuns []block
	// blocks cuts the prefix list into maximal stretches of one class, one
	// hosting cluster and one direct pattern (which planes' hosting leaf has
	// the direct route). A spine forwards every prefix of a block alike, and
	// so does a ToR or a leaf inside its own cluster, ToR by ToR: runs
	// derive those next hops once per block, never per prefix.
	blocks []block
	// direct[p*LeavesPerCluster+plane] reports whether the hosting
	// cluster's leaf on that plane has the direct route to prefix p.
	direct    []bool
	spineBase topology.DeviceID
	// spineHasDefault[d] and leafHasDefault[d]: d has the default route.
	spineHasDefault []bool
	leafHasDefault  []bool
	// leafSpines[leaf] lists the spines (as spineHas positions) of the
	// leaf's plane that it has a live session to.
	leafSpines [][]int
	// fastAccept short-circuits AS-path acceptance checks when no device
	// configuration overrides exist: under the default ASN allocation the
	// propagation rules never self-loop, so every constructed path is
	// accepted. (Cross-validated against Sim.)
	fastAccept bool
	// ident[d] is d: a one-hop next-hop set — a leaf's toward a ToR, a
	// spine's toward a leaf — is the shared slice ident[d:d+1] (see one).
	ident []topology.DeviceID
	// bufs pools the scratch synthRuns derives a device's runs in.
	bufs sync.Pool

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
	s.ident = make([]topology.DeviceID, len(topo.Devices))
	for i := range s.ident {
		s.ident[i] = topology.DeviceID(i)
	}
	s.bufs.New = func() any { return new(runBuf) }
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

	s.spineHasDefault = make([]bool, len(topo.Devices))
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
	// Live plane spines per leaf, read by the prefix loop below.
	s.leafHasDefault = make([]bool, len(topo.Devices))
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
		for _, k := range s.leafSpines[leaf] {
			if s.spineHasDefault[s.spineBase+topology.DeviceID(k)] {
				s.leafHasDefault[leaf] = true
				break
			}
		}
	}

	planes := topo.Params.LeavesPerCluster
	s.direct = make([]bool, len(s.prefixes)*planes)
	s.class = make([]int32, len(s.prefixes))
	s.classes, s.classRuns, s.blocks = nil, s.classRuns[:0], s.blocks[:0]
	intern := make(map[string]int32)
	has := make([]bool, nSpines)
	key := make([]byte, nSpines)
	for pi, hp := range s.prefixes {
		clear(has)
		// The hosting cluster's leaf on each plane has the prefix iff its
		// link to the hosting ToR is live; each spine of that plane has it
		// iff additionally its session to that leaf is live.
		for plane, leaf := range topo.ClusterLeaves(hp.Cluster) {
			if !s.leafHasDirect(leaf, hp.ToR) {
				continue
			}
			s.direct[pi*planes+plane] = true
			for _, k := range s.leafSpines[leaf] {
				has[k] = true
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
		if n := len(s.classRuns); n > 0 && s.classRuns[n-1].class == c {
			s.classRuns[n-1].hi++
		} else {
			s.classRuns = append(s.classRuns, block{lo: pi, hi: pi + 1, class: c})
		}
		if n := len(s.blocks); n > 0 && s.blocks[n-1].class == c && s.prefixes[pi-1].Cluster == hp.Cluster &&
			slices.Equal(s.direct[(pi-1)*planes:pi*planes], s.direct[pi*planes:(pi+1)*planes]) {
			s.blocks[n-1].hi++
		} else {
			s.blocks = append(s.blocks, block{lo: pi, hi: pi + 1, class: c, cluster: hp.Cluster})
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
// whole devices are evicted and row-scoped devices patched, on the worker
// pool (package par). Devices share scope slices (delta.Scope) — every
// device a ToR–leaf flip scopes reads one ToR's prefixes — so each
// distinct scope is planned once, not once per device.
func (s *Synth) syncCache(dirty *delta.Set) {
	if dirty == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	type job struct {
		rt    *fib.RunTable
		def   bool     // the default row is in scope (scopes are ascending: it sorts first)
		spans [][2]int // see spans
	}
	type scopeKey struct {
		first *ipnet.Prefix
		n     int
	}
	var jobs []job
	plans := make(map[scopeKey][][2]int)
	var patched, evicted int
	for d, rt := range s.cache {
		sc, ok := dirty.Scope(d)
		switch {
		case !ok:
		case sc.Whole:
			delete(s.cache, d)
			evicted++
		case len(sc.Rows) > 0:
			k := scopeKey{&sc.Rows[0], len(sc.Rows)}
			spans, ok := plans[k]
			if !ok {
				spans = s.spans(sc.Rows)
				plans[k] = spans
			}
			jobs = append(jobs, job{rt, sc.Rows[0].IsDefault(), spans})
			patched += len(sc.Rows)
		}
	}
	bufs := make([]runBuf, min(runtime.GOMAXPROCS(0), len(jobs)))
	par.For(len(jobs), len(bufs), func(w, i int) { s.patch(jobs[i].rt, jobs[i].def, jobs[i].spans, &bufs[w]) })
	s.Metrics.observeSync(patched, evicted)
}

// spans maps a scope's rows but the default onto the stretches [lo, hi) of
// positions they cover, ascending and disjoint, by binary search: a row
// scope implies a flat address plan (see package delta).
func (s *Synth) spans(scope []ipnet.Prefix) [][2]int {
	var spans [][2]int
	if len(scope) > 0 && scope[0].IsDefault() {
		scope = scope[1:]
	}
	at := func(i int) ipnet.Prefix { return s.prefixes[i].Prefix }
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
			spans = append(spans, [2]int{lo, hi})
		}
	}
	return spans
}

// patch brings a cached device's runs up to date with a row scope: the
// default row when def, and the stretches of positions spans lists. Each
// stretch is re-derived by the rule TableRuns uses and spliced in: the runs
// are split at the stretch's edges and equal neighbours merged back, so the
// result is what a fresh TableRuns returns, at a cost in the runs the
// stretch touches. Rows and runs are replaced, never written, so run tables
// handed out earlier stay intact.
func (s *Synth) patch(rt *fib.RunTable, def bool, spans [][2]int, buf *runBuf) {
	d := rt.Device
	dev := s.topo.Device(d)
	if def {
		rt.Rows = s.rows(d, dev)
	}
	if len(spans) == 0 {
		return
	}
	s.begin(buf, d, dev)
	for _, sp := range spans {
		buf.runs = s.appendRuns(buf.runs[:0], buf, d, dev, sp[0], sp[1])
		rt.Runs = spliceRuns(rt.Runs, sp[0], sp[1], buf.runs)
	}
}

// spliceRuns returns runs with what they say about positions [lo, hi)
// replaced by fresh, runs inside [lo, hi): the runs straddling an edge keep
// their part outside it, and equal neighbours merge across both edges. The
// result is a new slice and runs is never written, so run tables handed
// out earlier stay intact.
func spliceRuns(runs []fib.Run, lo, hi int, fresh []fib.Run) []fib.Run {
	i := sort.Search(len(runs), func(k int) bool { return runs[k].Hi >= lo })
	j := sort.Search(len(runs), func(k int) bool { return runs[k].Lo > hi })
	// Only runs[i] can start before lo, only runs[j-1] end after hi.
	out := make([]fib.Run, i, len(runs)-(j-i)+len(fresh)+2)
	copy(out, runs[:i])
	if i < j && runs[i].Lo < lo {
		out = append(out, fib.Run{Lo: runs[i].Lo, Hi: min(runs[i].Hi, lo), NextHops: runs[i].NextHops})
	}
	for _, r := range fresh {
		out = mergeRun(out, r)
	}
	if i < j && runs[j-1].Hi > hi {
		out = mergeRun(out, fib.Run{Lo: max(runs[j-1].Lo, hi), Hi: runs[j-1].Hi, NextHops: runs[j-1].NextHops})
	}
	return append(out, runs[j:]...)
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

// block is a stretch [lo, hi) of the prefix list with one class — and, in
// blocks, one hosting cluster and direct pattern.
type block struct {
	lo, hi  int
	class   int32
	cluster int
}

// spineHas returns, for hosted prefix pi, whether each spine has a route.
func (s *Synth) spineHas(pi int) []bool { return s.classes[s.class[pi]] }

// one returns the next-hop set {d}, shared.
func (s *Synth) one(d topology.DeviceID) []topology.DeviceID { return s.ident[d : d+1 : d+1] }

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

// synthRuns synthesizes d's runs, appending them to buf[:0], in scratch
// from the synth's pool.
func (s *Synth) synthRuns(d topology.DeviceID, buf []fib.Run) fib.RunTable {
	dev := s.topo.Device(d)
	scratch := s.bufs.Get().(*runBuf)
	s.begin(scratch, d, dev)
	rt := fib.RunTable{Device: d, Rows: s.rows(d, dev),
		Runs: s.appendRuns(buf[:0], scratch, d, dev, 0, len(s.prefixes))}
	s.bufs.Put(scratch)
	return rt
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

// runBuf is the scratch one device's runs are derived in — a patching
// worker's, or one from the synth's pool — reused from device to device:
// nothing derived keeps it (next hops are cloned out of hops, and patch
// splices copies of runs).
type runBuf struct {
	runs []fib.Run
	hops []topology.DeviceID
	// memo[c] holds the device's next hops toward a prefix of class c
	// outside its own cluster, nil until derived (see remote).
	memo [][]topology.DeviceID
	// What begin works out once per device: a ToR's live leaves and the
	// stretch of its own prefixes, a regional spine's live spines.
	leaves       []liveLeaf
	spines       []int
	ownLo, ownHi int
}

// liveLeaf is a leaf a ToR has a live session to, with the spines (as
// spineHas positions) the leaf has a live session to.
type liveLeaf struct {
	id     topology.DeviceID
	plane  int
	spines []int
}

// begin readies buf for deriving d's runs: nothing memoized yet, and what is
// per device worked out once rather than once per class or block.
func (s *Synth) begin(buf *runBuf, d topology.DeviceID, dev *topology.Device) {
	buf.memo = slices.Grow(buf.memo[:0], len(s.classes))[:len(s.classes)]
	clear(buf.memo)
	buf.leaves, buf.spines = buf.leaves[:0], buf.spines[:0]
	switch dev.Role {
	case topology.RoleToR:
		for _, leaf := range s.topo.ClusterLeaves(dev.Cluster) {
			if s.live(d, leaf) {
				buf.leaves = append(buf.leaves, liveLeaf{id: leaf, plane: s.topo.Device(leaf).Plane, spines: s.leafSpines[leaf]})
			}
		}
		lo, hi := s.clusterSpan(dev.Cluster)
		buf.ownLo = lo + sort.Search(hi-lo, func(i int) bool { return s.prefixes[lo+i].ToR >= d })
		buf.ownHi = s.torEnd(buf.ownLo, hi, d)
	case topology.RoleRegionalSpine:
		for _, sp := range s.topo.Spines() {
			if s.live(d, sp) {
				buf.spines = append(buf.spines, s.spineIdx(sp))
			}
		}
	}
}

// clusterSpan returns the positions [lo, hi) of cluster c's prefixes: the
// prefix list runs ToR by ToR, cluster by cluster (topology.HostedPrefixes).
func (s *Synth) clusterSpan(c int) (lo, hi int) {
	lo = sort.Search(len(s.prefixes), func(i int) bool { return s.prefixes[i].Cluster >= c })
	hi = lo + sort.Search(len(s.prefixes)-lo, func(i int) bool { return s.prefixes[lo+i].Cluster > c })
	return lo, hi
}

// torEnd returns where, from position pi and before hi, the prefixes of
// ToR tor end.
func (s *Synth) torEnd(pi, hi int, tor topology.DeviceID) int {
	return pi + sort.Search(hi-pi, func(i int) bool { return s.prefixes[pi+i].ToR > tor })
}

// within returns the part of bs — ascending, disjoint stretches — that
// overlaps positions [lo, hi).
func within(bs []block, lo, hi int) []block {
	if lo >= hi {
		return nil
	}
	i := sort.Search(len(bs), func(i int) bool { return bs[i].hi > lo })
	j := i + sort.Search(len(bs)-i, func(k int) bool { return bs[i+k].lo >= hi })
	return bs[i:j]
}

// appendRuns appends d's runs over positions [lo, hi) of the prefix list to
// runs, in order, deriving them in buf (readied by begin). Under fastAccept
// no next hop is derived per prefix: outside its own cluster a ToR, a leaf
// or a regional spine derives its next hops once per class (remote) and
// emits them once per class run; a spine derives its one next hop per
// block, and a ToR or leaf inside its own cluster once per block — a ToR
// cutting its own prefixes out, a leaf emitting one run per ToR. With any
// configuration each row goes through specificNextHops.
func (s *Synth) appendRuns(runs []fib.Run, buf *runBuf, d topology.DeviceID, dev *topology.Device, lo, hi int) []fib.Run {
	if !s.fastAccept {
		for pi := lo; pi < hi; pi++ {
			if s.prefixes[pi].ToR != d { // else connected
				runs = appendRun(runs, pi, pi+1, s.specificNextHops(d, pi, s.prefixes[pi]))
			}
		}
		return runs
	}
	switch dev.Role {
	case topology.RoleRegionalSpine:
		return s.appendRemote(runs, buf, dev, lo, hi)
	case topology.RoleSpine:
		// A spine has a prefix's route iff its class says so; the next hop
		// is the hosting cluster's leaf on the spine's plane.
		k := s.spineIdx(d)
		for _, b := range within(s.blocks, lo, hi) {
			if s.classes[b.class][k] {
				runs = appendRun(runs, max(b.lo, lo), min(b.hi, hi), s.one(s.hostLeaf(b.cluster, dev.Plane)))
			}
		}
		return runs
	}
	clo, chi := s.clusterSpan(dev.Cluster)
	runs = s.appendRemote(runs, buf, dev, lo, min(hi, clo))
	planes := s.topo.Params.LeavesPerCluster
	for _, b := range within(s.blocks, max(lo, clo), min(hi, chi)) {
		blo, bhi := max(b.lo, lo), min(b.hi, hi)
		direct := s.direct[b.lo*planes : (b.lo+1)*planes]
		if dev.Role == topology.RoleLeaf {
			// Straight to the hosting ToR, if the link to it is live.
			if !direct[dev.Plane] {
				continue
			}
			for pi := blo; pi < bhi; {
				tor := s.prefixes[pi].ToR
				end := s.torEnd(pi, bhi, tor)
				runs = appendRun(runs, pi, end, s.one(tor))
				pi = end
			}
			continue
		}
		// ToR: via each live leaf with the direct route, except toward its
		// own prefixes, which are connected.
		if buf.ownLo <= blo && bhi <= buf.ownHi {
			continue
		}
		hops := buf.hops[:0]
		for _, ls := range buf.leaves {
			if direct[ls.plane] {
				hops = append(hops, ls.id)
			}
		}
		buf.hops = hops
		nhs := owned(runs, hops)
		runs = appendRun(runs, blo, min(bhi, buf.ownLo), nhs)
		runs = appendRun(runs, max(blo, buf.ownHi), bhi, nhs)
	}
	return s.appendRemote(runs, buf, dev, max(lo, chi), hi)
}

// appendRemote appends the runs of a ToR, leaf or regional spine over
// positions [lo, hi) outside its own cluster: one per class run.
func (s *Synth) appendRemote(runs []fib.Run, buf *runBuf, dev *topology.Device, lo, hi int) []fib.Run {
	for _, b := range within(s.classRuns, lo, hi) {
		runs = appendRun(runs, max(b.lo, lo), min(b.hi, hi), s.remote(runs, buf, dev, b.class))
	}
	return runs
}

// remote returns the device's next hops toward a prefix of class c outside
// its own cluster, derived on first use and memoized in buf: a regional
// spine's live spines that have the route, a leaf's live plane spines that
// have it, a ToR's live leaves with such a spine.
func (s *Synth) remote(runs []fib.Run, buf *runBuf, dev *topology.Device, c int32) []topology.DeviceID {
	if nhs := buf.memo[c]; nhs != nil {
		return nhs
	}
	has := s.classes[c]
	hops := buf.hops[:0]
	switch dev.Role {
	case topology.RoleRegionalSpine:
		for _, k := range buf.spines {
			if has[k] {
				hops = append(hops, s.spineBase+topology.DeviceID(k))
			}
		}
	case topology.RoleLeaf:
		for _, k := range s.leafSpines[dev.ID] {
			if has[k] {
				hops = append(hops, s.spineBase+topology.DeviceID(k))
			}
		}
	case topology.RoleToR:
		for _, ls := range buf.leaves {
			for _, k := range ls.spines {
				if has[k] {
					hops = append(hops, ls.id)
					break
				}
			}
		}
	}
	buf.hops = hops
	nhs := owned(runs, hops)
	buf.memo[c] = nhs
	return nhs
}

// noHops is the derived, empty next-hop set: no route.
var noHops = []topology.DeviceID{}

// owned returns a next-hop set equal to hops (scratch) that runs may keep:
// the last run's when equal — a ToR's own prefixes split its "via all my
// leaves" run in two — else a copy.
func owned(runs []fib.Run, hops []topology.DeviceID) []topology.DeviceID {
	if len(hops) == 0 {
		return noHops
	}
	if n := len(runs); n > 0 && slices.Equal(runs[n-1].NextHops, hops) {
		return runs[n-1].NextHops
	}
	return slices.Clone(hops)
}

// appendRun adds rows at positions [lo, hi) forwarding to hops, which the
// runs keep: it extends the last run when that ends at lo with the same
// next hops, and otherwise starts a new one. A route nobody advertises is
// absent, so empty hops (or an empty stretch) add nothing.
func appendRun(runs []fib.Run, lo, hi int, hops []topology.DeviceID) []fib.Run {
	if len(hops) == 0 || lo >= hi {
		return runs
	}
	if n := len(runs); n > 0 && runs[n-1].Hi == lo && slices.Equal(runs[n-1].NextHops, hops) {
		runs[n-1].Hi = hi
		return runs
	}
	return append(runs, fib.Run{Lo: lo, Hi: hi, NextHops: hops})
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
