// Package delta computes the blast radius of a topology change set: the
// devices whose converged FIBs can differ from before the changes and, per
// device, which rows — the only (device × prefix) cells incremental
// revalidation needs to revisit.
//
// This is the change-driven half of the paper's locality argument (§2.4,
// Claim 1): because contracts are local and the EBGP design is a strict
// plane-structured hierarchy, a link state change propagates along a small,
// statically characterizable set of paths. The rules below are derived
// from the converged-state model in internal/bgp (Synth) and are
// deliberately conservative — the computed set is a superset of the
// devices whose tables actually change, never a subset. Changes the rules
// cannot bound (device-level config edits, links outside the recognized
// tiers, configs that alter route acceptance) fall back to the whole
// datacenter, which is always safe: incremental validation then degrades
// to the full sweep it replaces.
//
// Per change type, with l = leaf of cluster c on plane j. Each dirty
// device carries a Scope: the rows the change can have moved, or Whole when
// (nearly) every row mentions the flipped link:
//
//   - ToR–leaf link (t — l): the hosting cluster's plane-j leaf is the
//     unique injector of t's prefixes into plane j, so those prefixes
//     appear or vanish across the whole plane and every ToR in the
//     datacenter adjusts its ECMP set for them. Dirty: all ToRs, plane-j
//     leaves, plane-j spines, all regional spines — each only in the rows
//     for t's hosted prefixes. t itself is Whole: l sits in every one of
//     its next-hop sets, default included.
//
//   - Leaf–spine link (l — s): every plane-j leaf (their via-spine route
//     sets mention s), s itself and the regional spines adjacent to s, in
//     the rows for cluster c's prefixes — s learns exactly those from l.
//     l is Whole: s sits in all its remote rows and its default. ToRs are
//     only dragged in when the leaf above them may have gained or lost its
//     *last* path — checked per cluster against the alternative spines of
//     the plane: cluster c's ToRs Whole (every remote row and the default
//     ride on l), another cluster's ToRs in cluster c's rows.
//
//   - Spine–RS link (s — r): s in its default row only; r is Whole (s sits
//     in every one of its rows). If s has no stable live RS link, its
//     default-route origination may flip, dirtying the default row of the
//     plane-j leaves, and any such leaf left without a stable default
//     spine drags in its cluster's ToRs — default row only.
//
//   - Everything else (ChangeDevice, unrecognized tiers): whole DC.
//
// Scopes of several changes in one window union per device. Row scopes
// presuppose a flat address plan (hosted prefixes ascending ToR by ToR and
// pairwise disjoint — the only kind topology.New emits): that is what lets
// the table cache and the contract lookup find a row by binary search. On
// any other plan every dirty device is Whole.
//
// All alternative-path tests demand *stable* links: live in the current
// state and untouched by the change window. A stable path existed before
// the window too, so the route availability it witnesses provably did not
// flip — which is what licenses leaving a device out of the dirty set.
// A link that changed mid-window (even back to its original state) never
// counts as an alternative.
package delta

import (
	"sort"

	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/topology"
)

// Scope is the part of one dirty device's FIB a change window can have
// moved: every row (Whole), or exactly the rows at the listed prefixes —
// present before, after, both or neither. ipnet.Prefix{} names the default
// row. Rows is ascending, duplicate-free and shared between devices: read
// only.
type Scope struct {
	Whole bool
	Rows  []ipnet.Prefix
}

// defaultRow is the scope of a change that can only move default routes.
var defaultRow = []ipnet.Prefix{{}}

// Set is a blast-radius dirty set: either an explicit set of devices, each
// with its row scope, or the conservative whole-datacenter fallback.
type Set struct {
	full bool
	devs map[topology.DeviceID]Scope
	// wholeOnly turns every row scope into Whole: the address plan is not
	// flat, so rows cannot be addressed on their own.
	wholeOnly bool
}

// NewSet returns an empty dirty set.
func NewSet() *Set { return &Set{devs: make(map[topology.DeviceID]Scope)} }

// Full reports whether the set degenerated to the whole datacenter.
func (s *Set) Full() bool { return s.full }

// MarkFull degrades the set to the whole-datacenter fallback.
func (s *Set) MarkFull() { s.full = true }

// Add inserts one device with every row in scope.
func (s *Set) Add(d topology.DeviceID) {
	if !s.full {
		s.devs[d] = Scope{Whole: true}
	}
}

// AddAll inserts a slice of devices, every row in scope.
func (s *Set) AddAll(ds []topology.DeviceID) {
	for _, d := range ds {
		s.Add(d)
	}
}

// addRows inserts one device with the given rows in scope, widening any
// scope it already has. rows must be ascending and duplicate-free — hosted
// prefixes in ToR order are, on a flat plan, and on any other the rows are
// not looked at; the set keeps the slice, so the caller must not write to
// it afterwards.
func (s *Set) addRows(d topology.DeviceID, rows []ipnet.Prefix) {
	if s.full || len(rows) == 0 {
		return
	}
	if s.wholeOnly {
		s.Add(d)
		return
	}
	cur, dirty := s.devs[d]
	if cur.Whole {
		return
	}
	if dirty {
		rows = mergeRows(cur.Rows, rows)
	}
	s.devs[d] = Scope{Rows: rows}
}

func (s *Set) addRowsAll(ds []topology.DeviceID, rows []ipnet.Prefix) {
	for _, d := range ds {
		s.addRows(d, rows)
	}
}

// mergeRows unions two ascending row lists, returning a itself when b adds
// nothing (the common repeat of one change in a window).
func mergeRows(a, b []ipnet.Prefix) []ipnet.Prefix {
	var out []ipnet.Prefix
	i := 0
	for j, q := range b {
		for i < len(a) && a[i].Compare(q) < 0 {
			if out != nil {
				out = append(out, a[i])
			}
			i++
		}
		if i < len(a) && a[i] == q {
			continue
		}
		if out == nil {
			out = make([]ipnet.Prefix, i, len(a)+len(b)-j)
			copy(out, a[:i])
		}
		out = append(out, q)
	}
	if out == nil {
		return a
	}
	return append(out, a[i:]...)
}

// Scope returns the rows of d the change window can have moved. ok is
// false for a device outside the blast radius; a full set puts every
// device in scope whole.
func (s *Set) Scope(d topology.DeviceID) (sc Scope, ok bool) {
	if s.full {
		return Scope{Whole: true}, true
	}
	sc, ok = s.devs[d]
	return sc, ok
}

// Contains reports whether the device is dirty. A full set contains
// every device.
func (s *Set) Contains(d topology.DeviceID) bool {
	if s.full {
		return true
	}
	_, ok := s.devs[d]
	return ok
}

// Count returns the number of explicitly dirty devices (0 for a full set;
// use Full to distinguish).
func (s *Set) Count() int {
	if s.full {
		return 0
	}
	return len(s.devs)
}

// Devices returns the dirty devices in ascending ID order, or nil for a
// full set.
func (s *Set) Devices() []topology.DeviceID {
	if s.full {
		return nil
	}
	out := make([]topology.DeviceID, 0, len(s.devs))
	for d := range s.devs {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Options tunes the blast-radius computation.
type Options struct {
	// UnboundedConfig marks the presence of device configuration that
	// alters route acceptance or session liveness (ASN overrides,
	// default-route rejection, platform-disabled sessions — see
	// bgp.ConfigUnbounded). The structural rules assume topology-level
	// liveness equals routing-level liveness; such configs break that
	// assumption, so any link change degrades to the whole-DC fallback.
	// ECMP truncation (MaxECMPPaths) is safe and does not set this: a
	// truncated set only changes when the untruncated set does.
	UnboundedConfig bool

	// Metrics, when non-nil, records the size of every computed blast
	// radius (or a fallback counter tick when it degrades to full).
	Metrics *Metrics
}

// scope carries the per-window state the blast rules consult: the
// topology and the set of links touched anywhere in the change window.
type scope struct {
	t       *topology.Topology
	changed map[topology.LinkID]bool
}

// Compute returns the blast radius of a journaled change sequence against
// the topology's *current* (post-change) state. The result is a superset
// of the devices whose converged tables differ from before the sequence.
func Compute(t *topology.Topology, changes []topology.Change, opts Options) *Set {
	s := NewSet()
	defer func() { opts.Metrics.observeSet(s) }()
	sc := scope{t: t, changed: make(map[topology.LinkID]bool, len(changes))}
	for _, c := range changes {
		if c.Kind == topology.ChangeDevice || opts.UnboundedConfig {
			s.MarkFull()
			return s
		}
		sc.changed[c.Link] = true
	}
	s.wholeOnly = !flatPlan(t)
	for _, c := range changes {
		if s.full {
			break
		}
		sc.blastLink(t.Link(c.Link), s)
	}
	return s
}

// Since returns the blast radius of every change journaled after
// generation gen: Compute over that journal window, or the whole
// datacenter when the journal no longer reaches back to gen.
func Since(t *topology.Topology, gen uint64, opts Options) *Set {
	changes, ok := t.ChangesSince(gen)
	if !ok {
		s := NewSet()
		s.MarkFull()
		return s
	}
	return Compute(t, changes, opts)
}

// blastLink adds the dirty set of one link state change.
func (sc scope) blastLink(l *topology.Link, s *Set) {
	t := sc.t
	a, b := t.Device(l.A), t.Device(l.B)
	if a.Role > b.Role {
		a, b = b, a
	}
	switch {
	case a.Role == topology.RoleToR && b.Role == topology.RoleLeaf:
		sc.blastToRLeaf(a, b, s)
	case a.Role == topology.RoleLeaf && b.Role == topology.RoleSpine:
		sc.blastLeafSpine(a, b, s)
	case a.Role == topology.RoleSpine && b.Role == topology.RoleRegionalSpine:
		sc.blastSpineRS(a, b, s)
	default:
		// No such link tier exists in generated Clos topologies; keep the
		// fallback anyway so hand-built topologies stay safe.
		s.MarkFull()
	}
}

// blastToRLeaf handles a ToR–leaf link change: the ToR's prefixes are
// (un)injected into the leaf's whole plane, so every ToR in the DC and the
// regional spines adjust their ECMP sets for them — and for nothing else.
// The ToR itself loses or gains the leaf in every row.
func (sc scope) blastToRLeaf(tor, leaf *topology.Device, s *Set) {
	t := sc.t
	rows := tor.HostedPrefixes
	s.Add(tor.ID)
	s.addRowsAll(t.ToRs(), rows)
	s.addRowsAll(planeLeaves(t, leaf.Plane), rows)
	s.addRowsAll(planeSpines(t, leaf.Plane), rows)
	s.addRowsAll(t.RegionalSpines(), rows)
}

// blastLeafSpine handles a leaf–spine link change between leaf l (cluster
// c, plane j) and spine sp.
func (sc scope) blastLeafSpine(l, sp *topology.Device, s *Set) {
	t := sc.t
	// sp hears cluster c's prefixes from l alone, so only those rows move
	// on sp and on whoever lists sp as a next hop for them. l lists sp in
	// every remote row and in its default.
	var rows []ipnet.Prefix
	for _, tor := range t.ClusterToRs(l.Cluster) {
		rows = append(rows, t.Device(tor).HostedPrefixes...)
	}
	s.Add(l.ID)
	s.addRows(sp.ID, rows)
	s.addRowsAll(planeLeaves(t, l.Plane), rows)
	s.addRowsAll(neighborsOfRole(t, sp.ID, topology.RoleRegionalSpine), rows)
	// l's own cluster's ToRs see l in their ECMP sets for every remote
	// prefix and the default route; they are dirty only if l's route
	// *availability* can have flipped, i.e. no stable path witnesses the
	// route independently of the changed links.
	if !sc.leafKeepsAllRoutes(l) {
		s.AddAll(t.ClusterToRs(l.Cluster))
	}
	// Another cluster c2's ToRs see their own plane-j leaf in the ECMP set
	// for cluster c's prefixes; that availability flips only if no stable
	// plane path from that leaf into l remains.
	for c2 := 0; c2 < t.Params.Clusters; c2++ {
		if c2 == l.Cluster {
			continue
		}
		l2 := t.ClusterLeaves(c2)[l.Plane]
		if !sc.hasStableSpinePath(l2, l.ID) {
			s.addRowsAll(t.ClusterToRs(c2), rows)
		}
	}
}

// blastSpineRS handles a spine–RS link change between spine sp (plane j)
// and regional spine r.
func (sc scope) blastSpineRS(sp, r *topology.Device, s *Set) {
	t := sc.t
	// Below r the link carries the default route and nothing else; r
	// itself lists sp in every row.
	s.addRows(sp.ID, defaultRow)
	s.Add(r.ID)
	if sc.spineHasStableRS(sp.ID) {
		return
	}
	// sp's default-route origination may flip: every plane-j leaf's
	// default ECMP set can change, and any leaf left without a stable
	// default-carrying spine flips its own default, dirtying its ToRs.
	leaves := planeLeaves(t, sp.Plane)
	s.addRowsAll(leaves, defaultRow)
	for _, lf := range leaves {
		if !sc.leafHasStableDefault(t.Device(lf)) {
			s.addRowsAll(t.ClusterToRs(t.Device(lf).Cluster), defaultRow)
		}
	}
}

// leafKeepsAllRoutes reports whether leaf l retains, over stable links
// only, a live plane path to every other cluster and a default route —
// i.e. whether l's route availability is provably unchanged by the window.
func (sc scope) leafKeepsAllRoutes(l *topology.Device) bool {
	t := sc.t
	for c2 := 0; c2 < t.Params.Clusters; c2++ {
		if c2 == l.Cluster {
			continue
		}
		l2 := t.ClusterLeaves(c2)[l.Plane]
		if !sc.hasStableSpinePath(l.ID, l2) {
			return false
		}
	}
	return sc.leafHasStableDefault(l)
}

// hasStableSpinePath reports whether leaf from reaches leaf to over some
// plane spine with both hops stable.
func (sc scope) hasStableSpinePath(from, to topology.DeviceID) bool {
	for _, k := range planeSpines(sc.t, sc.t.Device(from).Plane) {
		if sc.stable(from, k) && sc.stable(k, to) {
			return true
		}
	}
	return false
}

// leafHasStableDefault reports whether leaf l has a stable link to a plane
// spine that itself has a stable RS link (and hence a stable default).
func (sc scope) leafHasStableDefault(l *topology.Device) bool {
	for _, k := range planeSpines(sc.t, l.Plane) {
		if sc.stable(l.ID, k) && sc.spineHasStableRS(k) {
			return true
		}
	}
	return false
}

// spineHasStableRS reports whether spine sp has a stable live RS link.
func (sc scope) spineHasStableRS(sp topology.DeviceID) bool {
	for _, r := range neighborsOfRole(sc.t, sp, topology.RoleRegionalSpine) {
		if sc.stable(sp, r) {
			return true
		}
	}
	return false
}

// stable reports whether the a—b link exists, is live now, and was not
// touched anywhere in the change window — so it was live throughout.
func (sc scope) stable(a, b topology.DeviceID) bool {
	l, ok := sc.t.LinkBetween(a, b)
	return ok && l.Live() && !sc.changed[l.ID]
}

// flatPlan reports whether the hosted prefixes, ToR by ToR — the order of
// Topology.HostedPrefixes, which synthesized tables and generated contracts
// follow — are ascending and pairwise disjoint.
func flatPlan(t *topology.Topology) bool {
	var last ipnet.Addr
	seen := false
	for _, tor := range t.ToRs() {
		for _, p := range t.Device(tor).HostedPrefixes {
			if seen && last >= p.First() {
				return false
			}
			last, seen = p.Last(), true
		}
	}
	return true
}

func planeLeaves(t *topology.Topology, plane int) []topology.DeviceID {
	out := make([]topology.DeviceID, 0, t.Params.Clusters)
	for c := 0; c < t.Params.Clusters; c++ {
		out = append(out, t.ClusterLeaves(c)[plane])
	}
	return out
}

func planeSpines(t *topology.Topology, plane int) []topology.DeviceID {
	spp := t.Params.SpinesPerPlane
	return t.Spines()[plane*spp : (plane+1)*spp]
}

func neighborsOfRole(t *topology.Topology, d topology.DeviceID, role topology.Role) []topology.DeviceID {
	var out []topology.DeviceID
	for _, lid := range t.LinksOf(d) {
		p, _ := t.Link(lid).Peer(d)
		if t.Device(p).Role == role {
			out = append(out, p)
		}
	}
	return out
}
