package bgp

import (
	"slices"
	"sort"
	"sync"

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

	// The synthesis state: what a device's runs are derived from. It
	// reflects the topology at generation stateGen, and RefreshDelta keeps it
	// up to date from the change journal (see advance): a link flip updates
	// what it touched and re-cuts classRuns and blocks around the prefixes
	// whose class or direct pattern moved, never the whole fleet.
	//
	// direct[tor*planes+plane] reports whether the ToR's link to its
	// cluster's leaf on that plane is live, that is whether the leaf has the
	// direct route to the ToR's prefixes: the ToR's direct mask.
	direct []bool
	// leafSpines[leaf] lists the spines (as spineHas positions) of the
	// leaf's plane that it has a live session to, each in a window of the
	// plane's width: the spine set of the leaf's (cluster, plane).
	leafSpines [][]int
	// torClass[tor] is the class of the ToR's prefixes, and
	// classes[c][k] reports whether the k'th spine (position in
	// topo.Spines(), a contiguous ID block) has a route for a prefix of
	// class c (spineHas). That row is the union of the spine sets of the
	// planes in the ToR's direct mask, so it depends on the hosting
	// cluster's spine sets and the mask alone. Rows are interned under an
	// integer key (classIdx, see find): prefixes with equal rows share one
	// class — a healthy fleet has a single class, and each fault splits
	// off a few more. classRefs counts each class's ToRs; classLive is how
	// many classes have one, and compact drops the rest once they
	// outnumber the live ones.
	torClass  []int32
	classes   [][]bool
	classRefs []int32
	classLive int
	classIdx  map[uint64]int32
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
	blocks    []block
	spineBase topology.DeviceID
	// spineHasDefault[d] and leafHasDefault[d]: d has the default route.
	spineHasDefault []bool
	leafHasDefault  []bool
	// stateGen is the generation the state reflects, and stateUnbounded
	// whether a configuration altering acceptance or liveness was in force
	// when it was derived (configuration edits leave no journal trace).
	stateGen       uint64
	stateUnbounded bool
	// upd is advance's scratch, reused from refresh to refresh.
	upd stateScratch
	// fastAccept short-circuits AS-path acceptance checks when no device
	// configuration overrides exist: under the default ASN allocation the
	// propagation rules never self-loop, so every constructed path is
	// accepted. (Cross-validated against Sim.)
	fastAccept bool
	// ident[d] is d: a one-hop next-hop set — a leaf's toward a ToR, a
	// spine's toward a leaf — is the shared slice ident[d:d+1] (see one).
	ident []topology.DeviceID
	// clusterAt[c] is where cluster c's prefixes start in the prefix list
	// (clusterAt[Clusters] is its end), and own[tor] the stretch of a ToR's
	// own prefixes: the list runs ToR by ToR, cluster by cluster
	// (topology.HostedPrefixes), and never changes.
	clusterAt []int
	own       [][2]int
	// bufs pools the scratch a device's runs are derived in.
	bufs sync.Pool

	// Metrics records nothing: the synth keeps no table cache to count.
	// It stays for callers that still set it.
	Metrics *Metrics

	// UnionECMP disables MaxECMPPaths truncation so every synthesized
	// next-hop set is the union of all ECMP tie-break choices — the
	// ACORN-style route-nondeterminism abstraction the failure explorer
	// uses to cover "any tie-break" in a single validation run (and to
	// keep Clos symmetry intact: deterministic truncation picks hops by
	// device-ID order, which position permutations do not preserve). Set
	// before the first Table call.
	UnionECMP bool
}

// EnableTableCache does nothing: every pull derives its runs from the
// synthesis state Refresh and RefreshDelta maintain. It stays for callers
// that still call it.
func (s *Synth) EnableTableCache() {}

// NewSynth derives the synthesis state from the topology and configuration
// as they stand — in O(devices + prefixes + links), after which Table is
// cheap — and keeps it: call Refresh or RefreshDelta after mutating link
// state to bring it up to date.
func NewSynth(topo *topology.Topology, cfg map[topology.DeviceID]*DeviceConfig) *Synth {
	s := &Synth{topo: topo, cfg: cfg, prefixes: topo.HostedPrefixes()}
	if len(topo.Spines()) > 0 {
		s.spineBase = topo.Spines()[0]
	}
	n := len(topo.Devices)
	s.ident = make([]topology.DeviceID, n)
	for i := range s.ident {
		s.ident[i] = topology.DeviceID(i)
	}
	s.clusterAt = make([]int, topo.Params.Clusters+1)
	s.own = make([][2]int, n)
	for pi, hp := range s.prefixes {
		if pi == 0 || s.prefixes[pi-1].ToR != hp.ToR {
			s.own[hp.ToR][0] = pi
		}
		s.own[hp.ToR][1] = pi + 1
		s.clusterAt[hp.Cluster+1] = pi + 1
	}
	for c := 1; c < len(s.clusterAt); c++ {
		s.clusterAt[c] = max(s.clusterAt[c], s.clusterAt[c-1])
	}
	spp := topo.Params.SpinesPerPlane
	s.direct = make([]bool, n*topo.Params.LeavesPerCluster)
	s.leafSpines = make([][]int, n)
	flat := make([]int, len(topo.Leaves())*spp)
	for i, leaf := range topo.Leaves() {
		s.leafSpines[leaf] = flat[i*spp : i*spp : (i+1)*spp]
	}
	s.spineHasDefault = make([]bool, n)
	s.leafHasDefault = make([]bool, n)
	s.torClass = make([]int32, n)
	s.classIdx = make(map[uint64]int32)
	s.bufs.New = newRunBuf
	s.Refresh()
	return s
}

// Refresh derives the synthesis state afresh for every cluster from the
// current topology and configuration. The monitoring loop calls this at the
// start of every pull cycle so synthesized FIBs track live state, including
// direct config-map edits, which leave no journal trace. Refresh must not
// run concurrently with pulls.
func (s *Synth) Refresh() { s.advance(true) }

// Generation returns the topology generation the synthesis state reflects:
// that of the last Refresh or RefreshDelta, or of NewSynth.
func (s *Synth) Generation() uint64 { return s.stateGen }

// RefreshDelta brings the synthesis state up to the current generation from
// the change journal: a window of link and session flips updates only what
// they touched — a ToR–leaf flip one ToR's direct mask and the classes of
// its prefixes, a leaf–spine flip one leaf's spine set and its cluster's
// classes, a spine–regional-spine flip the default routes of one plane —
// while a truncated journal, a device-level change, a link of no known tier
// or an acceptance-altering configuration derives it afresh for every
// cluster, by the same update. Like Refresh, it must not run concurrently
// with pulls.
func (s *Synth) RefreshDelta() { s.advance(false) }

// stateScratch is the scratch advance and update work in.
type stateScratch struct {
	tors, leaves, spines []topology.DeviceID
	moved                []topology.DeviceID // ToRs whose direct mask changed
	clusters             []int               // clusters whose spine sets changed
	planes               []bool              // planes whose spines' default changed
	spans                [][2]int            // positions re-classed
	set                  []int               // a leaf's spine set being derived
	row                  []bool              // a class row being derived
	cut                  []block             // recut's fresh stretches
	remap                []int32             // compact's renumbering
}

// advance brings the synthesis state up to the topology's generation: the
// links the journal window since stateGen flipped name the ToRs, leaves and
// spines to update. With all, or anything the journal cannot bound — a
// truncated journal, a device-level change, a link of no known tier, an
// acceptance-altering configuration now or when the state was derived — it
// updates them all.
func (s *Synth) advance(all bool) {
	topo := s.topo
	s.fastAccept = len(s.cfg) == 0
	unbounded := ConfigUnbounded(s.cfg)
	changes, ok := topo.ChangesSince(s.stateGen)
	full := all || !ok || unbounded || s.stateUnbounded
	s.stateGen, s.stateUnbounded = topo.Generation(), unbounded
	u := &s.upd
	u.tors, u.leaves, u.spines = u.tors[:0], u.leaves[:0], u.spines[:0]
	for _, c := range changes {
		if full || c.Kind == topology.ChangeDevice {
			full = true
			break
		}
		l := topo.Link(c.Link)
		a, b := topo.Device(l.A), topo.Device(l.B)
		if a.Role > b.Role {
			a, b = b, a
		}
		switch {
		case a.Role == topology.RoleToR && b.Role == topology.RoleLeaf:
			u.tors = append(u.tors, a.ID)
		case a.Role == topology.RoleLeaf && b.Role == topology.RoleSpine:
			u.leaves = append(u.leaves, a.ID)
		case a.Role == topology.RoleSpine && b.Role == topology.RoleRegionalSpine:
			u.spines = append(u.spines, a.ID)
		default:
			full = true
		}
	}
	if full {
		s.update(topo.Spines(), topo.Leaves(), topo.ToRs(), true)
		return
	}
	slices.Sort(u.tors)
	slices.Sort(u.leaves)
	slices.Sort(u.spines)
	s.update(slices.Compact(u.spines), slices.Compact(u.leaves), slices.Compact(u.tors), false)
}

// update re-derives the state of the given spines, leaves and ToRs, each
// list ascending, and what depends on it: a spine's default route, then a
// leaf's spine set and default route (every leaf of a plane whose spine's
// default flipped), then a ToR's direct mask; the classes of every ToR of a
// cluster whose spine set changed, and of each ToR whose mask changed; and
// the cut of classRuns and blocks around their prefixes. With all, the
// lists are the whole fleet and the class table starts empty: the cold
// build is this update applied to every cluster.
func (s *Synth) update(spines, leaves, tors []topology.DeviceID, all bool) {
	topo := s.topo
	u := &s.upd
	u.planes = slices.Grow(u.planes[:0], topo.Params.LeavesPerCluster)[:topo.Params.LeavesPerCluster]
	clear(u.planes)
	for _, sp := range spines {
		if had := s.spineHasDefault[sp]; had != s.spineDefault(sp) {
			s.spineHasDefault[sp] = !had
			u.planes[topo.Device(sp).Plane] = true
		}
	}
	u.clusters = u.clusters[:0]
	for _, leaf := range leaves {
		if s.deriveLeafSpines(leaf) || all {
			u.clusters = append(u.clusters, topo.Device(leaf).Cluster)
		}
		s.leafHasDefault[leaf] = s.leafDefault(leaf)
	}
	for plane, flipped := range u.planes {
		for c := 0; flipped && !all && c < topo.Params.Clusters; c++ {
			leaf := topo.ClusterLeaves(c)[plane]
			s.leafHasDefault[leaf] = s.leafDefault(leaf)
		}
	}
	u.moved = u.moved[:0]
	for _, tor := range tors {
		if s.deriveDirect(tor) && !all {
			u.moved = append(u.moved, tor)
		}
	}

	if all {
		s.classes, s.classRefs, s.classLive = s.classes[:0], s.classRefs[:0], 0
		clear(s.classIdx)
		for _, tor := range tors {
			s.torClass[tor] = -1
		}
	}
	u.clusters = slices.Compact(u.clusters)
	u.spans = u.spans[:0]
	for _, c := range u.clusters {
		s.reclass(topo.ClusterToRs(c))
		lo, hi := s.clusterSpan(c)
		u.spans = append(u.spans, [2]int{lo, hi})
	}
	for _, tor := range u.moved {
		if _, done := slices.BinarySearch(u.clusters, topo.Device(tor).Cluster); !done {
			s.reclass(s.one(tor))
			u.spans = append(u.spans, s.own[tor])
		}
	}
	slices.SortFunc(u.spans, func(a, b [2]int) int { return a[0] - b[0] })
	for i := 0; i < len(u.spans); {
		lo, hi := u.spans[i][0], u.spans[i][1]
		for i++; i < len(u.spans) && u.spans[i][0] <= hi; i++ {
			hi = max(hi, u.spans[i][1])
		}
		if lo < hi || all {
			s.classRuns = s.recut(s.classRuns, lo, hi, false)
			s.blocks = s.recut(s.blocks, lo, hi, true)
		}
	}
	s.compact()
}

// spineDefault derives whether spine sp has the default route: from any
// live regional spine, unless it rejects defaults.
func (s *Synth) spineDefault(sp topology.DeviceID) bool {
	if s.config(sp).RejectDefaultIn {
		return false
	}
	for _, rs := range s.topo.RegionalSpines() {
		if s.live(sp, rs) {
			return true
		}
	}
	return false
}

// leafDefault derives whether a leaf has the default route: from any live
// plane spine that has it, unless it rejects defaults. It reads the leaf's
// spine set and the spines' defaults, so update derives those first.
func (s *Synth) leafDefault(leaf topology.DeviceID) bool {
	if s.config(leaf).RejectDefaultIn {
		return false
	}
	for _, k := range s.leafSpines[leaf] {
		if s.spineHasDefault[s.spineBase+topology.DeviceID(k)] {
			return true
		}
	}
	return false
}

// deriveLeafSpines derives a leaf's spine set — its live plane spines —
// in place, and reports whether it changed.
func (s *Synth) deriveLeafSpines(leaf topology.DeviceID) bool {
	ks := s.upd.set[:0]
	for _, sp := range s.planeSpines(leaf) {
		if s.live(leaf, sp) {
			ks = append(ks, s.spineIdx(sp))
		}
	}
	s.upd.set = ks
	changed := !slices.Equal(s.leafSpines[leaf], ks)
	s.leafSpines[leaf] = append(s.leafSpines[leaf][:0], ks...)
	return changed
}

// deriveDirect derives a ToR's direct mask in place — the plane-p leaf has
// the direct route to its prefixes iff the link between them is live —
// and reports whether it changed.
func (s *Synth) deriveDirect(tor topology.DeviceID) bool {
	m := s.mask(tor)
	changed := false
	for plane, leaf := range s.topo.ClusterLeaves(s.topo.Device(tor).Cluster) {
		live := s.live(leaf, tor)
		changed = changed || m[plane] != live
		m[plane] = live
	}
	return changed
}

// mask returns a ToR's direct mask, one entry per plane.
func (s *Synth) mask(tor topology.DeviceID) []bool {
	planes := s.topo.Params.LeavesPerCluster
	return s.direct[int(tor)*planes : (int(tor)+1)*planes]
}

// reclass derives the class of each of tors, ToRs of one cluster in
// order: a ToR whose mask equals the one before's shares its class.
func (s *Synth) reclass(tors []topology.DeviceID) {
	for i, tor := range tors {
		if i > 0 && slices.Equal(s.mask(tors[i-1]), s.mask(tor)) {
			s.setClass(tor, s.torClass[tors[i-1]])
			continue
		}
		row := slices.Grow(s.upd.row[:0], len(s.topo.Spines()))[:len(s.topo.Spines())]
		clear(row)
		for plane, leaf := range s.topo.ClusterLeaves(s.topo.Device(tor).Cluster) {
			if s.mask(tor)[plane] {
				for _, k := range s.leafSpines[leaf] {
					row[k] = true
				}
			}
		}
		s.upd.row = row
		s.setClass(tor, s.intern(row))
	}
}

// setClass moves a ToR to class c, keeping the reference counts.
func (s *Synth) setClass(tor topology.DeviceID, c int32) {
	old := s.torClass[tor]
	if old == c {
		return
	}
	if old >= 0 {
		if s.classRefs[old]--; s.classRefs[old] == 0 {
			s.classLive--
		}
	}
	if s.classRefs[c] == 0 {
		s.classLive++
	}
	s.classRefs[c]++
	s.torClass[tor] = c
}

// intern returns the class of a spine-reachability row (scratch), adding
// it if new.
func (s *Synth) intern(row []bool) int32 {
	h, c, ok := s.find(row)
	if ok {
		return c
	}
	c = int32(len(s.classes))
	s.classes = append(s.classes, slices.Clone(row))
	s.classRefs = append(s.classRefs, 0)
	s.classIdx[h] = c
	return c
}

// find looks a row up in classIdx by open addressing over its integer
// key: a hash of the row, then the keys after it, until the class with
// that row (ok) or a free key, where it belongs.
func (s *Synth) find(row []bool) (h uint64, c int32, ok bool) {
	h = 14695981039346656037 // FNV-1a over the row's spines
	for k, has := range row {
		if has {
			h = (h ^ uint64(k)) * 1099511628211
		}
	}
	for ; ; h++ {
		c, ok = s.classIdx[h]
		if !ok || slices.Equal(s.classes[c], row) {
			return h, c, ok
		}
	}
}

// classSlack is how many dead classes compact tolerates beyond the live
// count: the table stays within 2 × live + classSlack entries.
const classSlack = 4

// compact drops the classes no ToR holds once they outnumber the live ones
// by more than classSlack, renumbering the rest in order — every runBuf
// clears a memo entry per class for each device it derives, so a table
// that only grew would turn into per-device cost.
func (s *Synth) compact() {
	if len(s.classes)-s.classLive <= s.classLive+classSlack {
		return
	}
	remap := slices.Grow(s.upd.remap[:0], len(s.classes))[:len(s.classes)]
	s.upd.remap = remap
	clear(s.classIdx)
	n := int32(0)
	for c := range s.classes {
		remap[c] = -1
		if s.classRefs[c] == 0 {
			continue
		}
		remap[c] = n
		s.classes[n], s.classRefs[n] = s.classes[c], s.classRefs[c]
		h, _, _ := s.find(s.classes[n])
		s.classIdx[h] = n
		n++
	}
	clear(s.classes[n:])
	s.classes, s.classRefs = s.classes[:n], s.classRefs[:n]
	for _, tor := range s.topo.ToRs() {
		s.torClass[tor] = remap[s.torClass[tor]]
	}
	for _, bs := range [][]block{s.classRuns, s.blocks} {
		for i := range bs {
			bs[i].class = remap[bs[i].class]
		}
	}
}

// recut returns bs — the prefix list cut into class runs, or into blocks
// when byBlock — cut afresh around positions [lo, hi), whose class or
// direct pattern may have moved: the cut elsewhere stands, and the
// stretches holding positions lo-1 and hi are re-cut with them, so equal
// neighbours merge across both edges. With lo 0 and hi the prefix count
// it cuts the whole list, whatever bs held.
func (s *Synth) recut(bs []block, lo, hi int, byBlock bool) []block {
	n := len(s.prefixes)
	i := sort.Search(len(bs), func(k int) bool { return bs[k].hi >= lo })
	j, start, end := len(bs), lo, n
	if lo > 0 {
		start = bs[i].lo
	}
	if hi < n {
		j = i + sort.Search(len(bs)-i, func(k int) bool { return bs[i+k].hi > hi })
		end = bs[j].hi
		j++
	}
	cut, at := s.upd.cut[:0], start
	for pi := max(lo, 1); pi <= min(hi, n-1); pi++ {
		if s.splits(pi, byBlock) {
			cut = append(cut, s.block(at, pi))
			at = pi
		}
	}
	if at < end {
		cut = append(cut, s.block(at, end))
	}
	s.upd.cut = cut
	return slices.Replace(bs, i, j, cut...)
}

// splits reports whether position pi starts a new class run, or block when
// byBlock, after pi-1.
func (s *Synth) splits(pi int, byBlock bool) bool {
	a, b := s.prefixes[pi-1], s.prefixes[pi]
	if s.torClass[a.ToR] != s.torClass[b.ToR] {
		return true
	}
	return byBlock && (a.Cluster != b.Cluster || a.ToR != b.ToR && !slices.Equal(s.mask(a.ToR), s.mask(b.ToR)))
}

// block returns the stretch [lo, hi) with the class and cluster of lo.
func (s *Synth) block(lo, hi int) block {
	hp := s.prefixes[lo]
	return block{lo: lo, hi: hi, class: s.torClass[hp.ToR], cluster: hp.Cluster}
}

// block is a stretch [lo, hi) of the prefix list with one class — and, in
// blocks, one hosting cluster and direct pattern.
type block struct {
	lo, hi  int
	class   int32
	cluster int
}

// spineHas returns, for hosted prefix pi, whether each spine has a route.
func (s *Synth) spineHas(pi int) []bool { return s.classes[s.torClass[s.prefixes[pi].ToR]] }

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
// are copies; their NextHops slices are shared and immutable. Rows finds
// positions by binary search and so requires the flat address plan that
// every row scope implies.
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

// runTable returns d's converged runs over the whole prefix list.
func (s *Synth) runTable(d topology.DeviceID) fib.RunTable {
	return s.synthRuns(d, 0, len(s.prefixes), fib.RunTable{})
}

// RunPrefixes returns the prefix list TableRuns indexes: the hosted
// prefixes in ToR order.
func (s *Synth) RunPrefixes() []topology.HostedPrefix { return s.prefixes }

// TableRuns returns d's converged table as runs over RunPrefixes (see
// fib.RunTable), appending the runs over positions [lo, hi) to
// buf.Runs[:0] and the rows outside them to buf.Rows[:0]: Rows holds the
// connected routes and the default route, and each run is a maximal
// stretch of hosted prefixes d forwards to one next-hop set, cut at lo and
// hi. Over the whole list, expanding them gives exactly what Table
// returns. The runs are derived from the synthesis state on every call, in
// time set by the runs emitted, and safe for concurrent pulls.
func (s *Synth) TableRuns(d topology.DeviceID, lo, hi int, buf fib.RunTable) fib.RunTable {
	return s.synthRuns(d, lo, hi, buf)
}

// Home returns the stretch [lo, hi) of RunPrefixes that a full check of d
// merges on its own, classing the positions outside it by RunClass: a
// ToR's own cluster. ok is false for every other role, which a full check
// merges whole: a leaf's stretch outside its cluster is that cluster's
// alone, and the cluster's leaves are on distinct planes, so no two leaves
// of one class share it; spines and regional spines have no class.
func (s *Synth) Home(d topology.DeviceID) (lo, hi int, ok bool) {
	dev := s.topo.Device(d)
	if dev.Role != topology.RoleToR {
		return 0, 0, false
	}
	lo, hi = s.clusterSpan(dev.Cluster)
	return lo, hi, true
}

// RunClass returns the class of device d over positions [lo, hi) of
// RunPrefixes (see fib.RunClass), read from the synthesis state in time
// independent of the fleet: for a ToR whose own cluster's prefixes lie
// outside the stretch, its cluster and direct mask (Bits: the planes whose
// leaf it has a live session to); for such a leaf, its plane and live
// spine set (Bits: the spines, by place within the plane). Outside its own
// cluster a ToR forwards by its live leaves and their spine sets, which its
// cluster and mask fix, and a leaf by its live spines; their default rows
// follow from the same, and a ToR's connected rows lie in its own cluster.
// So devices of one class have equal runs over the stretch, no other row
// there and equal default rows — the same next-hop devices, not devices in
// the same position. ok is false for spines and regional spines, for a
// stretch that touches the device's own cluster, under any configuration
// (rows are then derived one by one) and for a mask or set wider than
// Bits.
func (s *Synth) RunClass(d topology.DeviceID, lo, hi int) (c fib.RunClass, ok bool) {
	dev := s.topo.Device(d)
	if !s.fastAccept || lo >= hi || dev.Role != topology.RoleToR && dev.Role != topology.RoleLeaf {
		return c, false
	}
	if clo, chi := s.clusterSpan(dev.Cluster); lo < chi && clo < hi {
		return c, false
	}
	c.Role = dev.Role
	if dev.Role == topology.RoleToR {
		m := s.mask(d)
		if len(m) > 64 {
			return c, false
		}
		c.Group = dev.Cluster
		for plane, live := range m {
			if live {
				c.Bits |= 1 << plane
			}
		}
		return c, true
	}
	spp := s.topo.Params.SpinesPerPlane
	if spp > 64 {
		return c, false
	}
	c.Group = dev.Plane
	for _, k := range s.leafSpines[d] {
		c.Bits |= 1 << (k - dev.Plane*spp)
	}
	return c, true
}

// synthRuns synthesizes d's runs over positions [lo, hi) and its rows,
// appending them to buf's, in scratch from the synth's pool.
func (s *Synth) synthRuns(d topology.DeviceID, lo, hi int, buf fib.RunTable) fib.RunTable {
	dev := s.topo.Device(d)
	scratch := s.bufs.Get().(*runBuf)
	s.begin(scratch, d, dev)
	rt := fib.RunTable{Device: d, Rows: s.appendRows(buf.Rows[:0], d, dev, scratch),
		Runs: s.appendRuns(buf.Runs[:0], scratch, d, dev, lo, hi)}
	s.bufs.Put(scratch)
	return rt
}

// appendRows appends d's rows outside the runs to rows: its connected
// routes, then its default route if it has one, whose next hops are
// derived in buf.
func (s *Synth) appendRows(rows []fib.Entry, d topology.DeviceID, dev *topology.Device, buf *runBuf) []fib.Entry {
	for _, p := range dev.HostedPrefixes {
		rows = append(rows, fib.Entry{Prefix: p, Connected: true})
	}
	if buf.hops = s.defaultNextHops(d, buf.hops[:0]); len(buf.hops) > 0 {
		rows = append(rows, fib.Entry{Prefix: ipnet.Prefix{}, NextHops: buf.owned(nil, buf.hops)})
	}
	return rows
}

// runBuf is the scratch one device's runs are derived in, from the synth's
// pool, reused from device to device: nothing derived keeps it (next hops
// are cloned out of hops).
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
	// recent holds the next-hop sets owned copied lately, oldest at next
	// once full: shared, immutable.
	recent [][]topology.DeviceID
	next   int
}

// recentSets is how many next-hop sets a runBuf remembers (see owned).
const recentSets = 8

func newRunBuf() any { return &runBuf{recent: make([][]topology.DeviceID, 0, recentSets)} }

// liveLeaf is a leaf a ToR has a live session to, and its plane. It holds
// no pointer, so readying a buffer writes none.
type liveLeaf struct {
	id    topology.DeviceID
	plane int
}

// begin readies buf for deriving d's runs: nothing memoized yet, and what is
// per device worked out once rather than once per class or block. A ToR's
// own stretch comes from the table NewSynth built, and its live leaves from
// its direct mask — the plane-p leaf has the direct route to its prefixes
// iff the link to the ToR is live.
func (s *Synth) begin(buf *runBuf, d topology.DeviceID, dev *topology.Device) {
	buf.memo = slices.Grow(buf.memo[:0], len(s.classes))[:len(s.classes)]
	clear(buf.memo)
	buf.leaves, buf.spines = buf.leaves[:0], buf.spines[:0]
	switch dev.Role {
	case topology.RoleToR:
		buf.ownLo, buf.ownHi = s.own[d][0], s.own[d][1]
		for plane, leaf := range s.topo.ClusterLeaves(dev.Cluster) {
			if s.mask(d)[plane] {
				buf.leaves = append(buf.leaves, liveLeaf{id: leaf, plane: plane})
			}
		}
	case topology.RoleRegionalSpine:
		for _, sp := range s.topo.Spines() {
			if s.live(d, sp) {
				buf.spines = append(buf.spines, s.spineIdx(sp))
			}
		}
	}
}

// clusterSpan returns the positions [lo, hi) of cluster c's prefixes.
func (s *Synth) clusterSpan(c int) (lo, hi int) { return s.clusterAt[c], s.clusterAt[c+1] }

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
	for _, b := range within(s.blocks, max(lo, clo), min(hi, chi)) {
		blo, bhi := max(b.lo, lo), min(b.hi, hi)
		direct := s.mask(s.prefixes[b.lo].ToR)
		if dev.Role == topology.RoleLeaf {
			// Straight to the hosting ToR, if the link to it is live.
			if !direct[dev.Plane] {
				continue
			}
			for pi := blo; pi < bhi; {
				tor := s.prefixes[pi].ToR
				end := min(s.own[tor][1], bhi)
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
		nhs := buf.owned(runs, hops)
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
			for _, k := range s.leafSpines[ls.id] {
				if has[k] {
					hops = append(hops, ls.id)
					break
				}
			}
		}
	}
	buf.hops = hops
	nhs := buf.owned(runs, hops)
	buf.memo[c] = nhs
	return nhs
}

// noHops is the derived, empty next-hop set: no route.
var noHops = []topology.DeviceID{}

// owned returns a next-hop set equal to hops (scratch) that runs may keep:
// the last run's when equal — a ToR's own prefixes split its "via all my
// leaves" run in two — else one of the sets buf handed out lately, else a
// copy, which buf then remembers. Devices worked one after the other share
// most sets (a cluster's ToRs their leaves, a plane's leaves their spines),
// so deriving a fleet's runs copies a set about once per cluster or plane
// and worker, not once per device.
func (buf *runBuf) owned(runs []fib.Run, hops []topology.DeviceID) []topology.DeviceID {
	if len(hops) == 0 {
		return noHops
	}
	if n := len(runs); n > 0 && slices.Equal(runs[n-1].NextHops, hops) {
		return runs[n-1].NextHops
	}
	for _, h := range buf.recent {
		if slices.Equal(h, hops) {
			return h
		}
	}
	h := slices.Clone(hops)
	if len(buf.recent) < cap(buf.recent) {
		buf.recent = append(buf.recent, h)
	} else {
		buf.recent[buf.next] = h
		buf.next = (buf.next + 1) % len(buf.recent)
	}
	return h
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

// defaultNextHops appends d's default route's next hops to nhs.
func (s *Synth) defaultNextHops(d topology.DeviceID, nhs []topology.DeviceID) []topology.DeviceID {
	dev := s.topo.Device(d)
	cfg := s.config(d)
	if cfg.RejectDefaultIn {
		return nhs
	}
	switch dev.Role {
	case topology.RoleRegionalSpine:
		// The RS's own default points into the regional network, outside
		// the model; its FIB carries no default entry (matching Sim).
		return nhs
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
