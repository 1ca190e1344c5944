// Package pec implements the packet-equivalence-class validation engine:
// the third RCDC checker beside the trie (§2.5.2) and SMT (§2.5.1)
// engines. Per device it computes the atoms of the destination address
// space — the coarsest partition in which every address matches the same
// FIB rule and falls under the same contracts (the lattice-theoretical
// #PEC construction, specialized to the one packet-header dimension RCDC
// contracts constrain; the conflint acl-shadow interval engine is the
// 5-tuple sibling of the same idea). Contract checks then become
// constant-time operations over interned class and hop-set IDs instead
// of per-prefix trie walks.
//
// The engine is differential by construction: its verdicts are
// byte-identical to the trie engine's, which the scenario matrix, the
// benchmark's oracle legs and FuzzPECDifferential all lock. Where a contract's
// classes are provably equivalent to the trie walk's outcome the engine
// answers from class state alone; the rare remainder (shadowed rules
// inside a failing span, degenerate /0 contracts) replays the walk in
// exact trie order over the precomputed atoms, so even multi-violation
// orderings match.
//
// Atomization is cached per device behind a content hash of (FIB,
// contracts, role) — the synth hands out a fresh table per pull, so
// pointer identity can never prove "unchanged". A delta sweep therefore
// re-atomizes only the devices whose table or contracts changed, with
// nothing evicted; a row-scoped re-check goes through CheckRows, which
// leaves the cache alone.
package pec

import (
	"sync"

	"dcvalidate/internal/clock"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// Checker is the packet-equivalence-class engine. The zero value is
// ready to use; one Checker is meant to live as long as its engine so
// the per-device atomization cache and the hop-set interner amortize
// across sweeps. Safe for concurrent use by validator worker pools.
//
// Like the other engines it implements rcdc.Checker. Returned violation
// slices may be shared with the internal cache and must be treated as
// immutable — the same discipline the engine layer's report caches
// already require.
type Checker struct {
	// Exact extends the exact-ECMP-set requirement to specific contracts,
	// mirroring rcdc.TrieChecker.Exact.
	Exact bool
	// Clock times atomizations; nil falls back to the system clock.
	Clock clock.Clock
	// Metrics, when non-nil, receives atomization and cache telemetry.
	Metrics *Metrics

	mu    sync.Mutex
	devs  map[topology.DeviceID]*deviceState
	in    *interner
	pool  sync.Pool // *scratch
	stats Stats
}

// deviceState is the cached outcome of one device's atomization: the
// content fingerprints it is valid for and the verdicts. Only the latest
// state per device is kept, so cache memory is O(devices), not
// O(history).
type deviceState struct {
	tblHash    uint64
	conHash    uint64
	violations []rcdc.Violation
}

// Stats is a point-in-time snapshot of the engine's cache and class
// counters, read by the benchmark's pec rows.
type Stats struct {
	// Devices currently holding cached atomization state.
	Devices int
	// CacheHits counts device checks answered from cache.
	CacheHits int64
	// Atomizations counts cache-miss evaluations.
	Atomizations int64
	// Atoms is the summed class count across all atomizations.
	Atoms int64
	// SlowPathContracts counts contracts that needed exact trie-order
	// replay rather than a class-level fast verdict.
	SlowPathContracts int64
	// HopSets is the number of distinct interned ECMP sets.
	HopSets int

	// ShapeBuilds, ShapeHits and ShapeFallbacks are always zero: the
	// engine shares no atomizations across devices. They stay only so
	// existing readers of Stats (the benchmark harness) keep compiling.
	ShapeBuilds    int64
	ShapeHits      int64
	ShapeFallbacks int64
}

// Stats returns a snapshot of the engine counters.
func (c *Checker) Stats() Stats {
	c.mu.Lock()
	st := c.stats
	st.Devices = len(c.devs)
	in := c.in
	c.mu.Unlock()
	if in != nil {
		st.HopSets = in.count()
	}
	return st
}

// Invalidate drops the cached atomizations of the given devices, forcing
// re-atomization on their next check. No validation path needs it — the
// cache is keyed by content, so evicting never changes a verdict — but a
// caller may use it to measure a cold check or to bound the cache.
func (c *Checker) Invalidate(devs []topology.DeviceID) {
	c.mu.Lock()
	for _, d := range devs {
		delete(c.devs, d)
	}
	c.mu.Unlock()
}

// Reset drops all cached state (topology swaps, tests).
func (c *Checker) Reset() {
	c.mu.Lock()
	c.devs = nil
	c.in = nil
	c.stats = Stats{}
	c.mu.Unlock()
}

// acquire returns the checker's interner, created on first use, and a
// pooled scratch; the caller hands the scratch back with c.pool.Put.
func (c *Checker) acquire() (*interner, *scratch) {
	c.mu.Lock()
	if c.in == nil {
		c.in = newInterner()
	}
	in := c.in
	c.mu.Unlock()
	s, _ := c.pool.Get().(*scratch)
	if s == nil {
		s = &scratch{}
	}
	return in, s
}

// CheckDevice implements rcdc.Checker: a content-hash cache hit returns
// the stored verdicts; a miss atomizes the device and stores them.
func (c *Checker) CheckDevice(tbl *fib.Table, dc contracts.DeviceContracts, role topology.Role) ([]rcdc.Violation, error) {
	th := hashTable(tbl)
	ch := hashContracts(dc, role)
	c.mu.Lock()
	if st := c.devs[dc.Device]; st != nil && st.tblHash == th && st.conHash == ch {
		c.stats.CacheHits++
		c.mu.Unlock()
		c.Metrics.observeCache(true)
		return st.violations, nil
	}
	c.mu.Unlock()
	c.Metrics.observeCache(false)

	in, s := c.acquire()
	start := clock.Or(c.Clock).Now()
	viols, atoms, slow := c.evaluate(s, in, tbl, dc, role)
	ops := s.ops
	c.pool.Put(s)
	c.Metrics.observeAtomize(clock.Since(c.Clock, start), atoms)
	c.Metrics.observeEval(ops, int64(slow), in.count())

	c.mu.Lock()
	c.stats.Atomizations++
	c.stats.Atoms += int64(atoms)
	c.stats.SlowPathContracts += int64(slow)
	if c.devs == nil {
		c.devs = make(map[topology.DeviceID]*deviceState)
	}
	c.devs[dc.Device] = &deviceState{tblHash: th, conHash: ch, violations: viols}
	c.mu.Unlock()
	return viols, nil
}

// CheckRows implements rcdc.RowChecker: it evaluates a fragment of a device
// (a row-scoped re-check) on its own — no cache lookup and nothing stored,
// so the device's cached atomization stays that of its whole table.
func (c *Checker) CheckRows(tbl *fib.Table, dc contracts.DeviceContracts, role topology.Role) ([]rcdc.Violation, error) {
	in, s := c.acquire()
	viols, _, _ := c.evaluate(s, in, tbl, dc, role)
	c.pool.Put(s)
	return viols, nil
}

// ruleRef is one deduplicated non-default FIB rule projected onto the
// address line: [first, lastEx) with its prefix length, the index of the
// winning table entry (last write wins, like trie insertion), and its
// interned hop set.
type ruleRef struct {
	first  uint64
	lastEx uint64
	bits   uint8
	idx    int32
	hops   hopSet
}

// scratch holds every reusable backing array of one evaluation. Pooled
// so concurrent worker checks don't contend and steady-state evaluations
// don't allocate beyond first growth.
type scratch struct {
	rules     []ruleRef
	byPrefix  map[ipnet.Prefix]int32
	bnd       []uint64 // atom boundaries: bnd[a] .. bnd[a+1] is atom a
	ownerBits []uint8  // per atom: prefix length of the owning rule (LPM)
	ownerPos  []int32  // per atom: index into rules, -1 when only default applies
	stack     []int32  // nesting stack for the owner sweep
	mark      []uint32 // per-atom coverage epoch marks for slow-path replay
	epoch     uint32
	cands     []int32
	hopBuf    []topology.DeviceID
	keyBuf    []byte
	badBits   map[hopSet][]uint64 // per contract hop set: bad-rule bitset
	ops       int64               // bitset words touched (metrics)
}

// evaluate atomizes one device and checks every contract, returning the
// violations (nil when healthy), the atom count, and how many contracts
// took the exact-replay slow path.
func (c *Checker) evaluate(s *scratch, in *interner, tbl *fib.Table, dc contracts.DeviceContracts, role topology.Role) ([]rcdc.Violation, int, int) {
	s.ops = 0

	// Rule collection. Duplicate prefixes dedup last-wins — the trie
	// engine's Insert replaces values, so Get/Lookup resolve to the last
	// entry — and the default route is split off: it is never a class
	// owner (every atom it would own reports "ownerless" instead, which
	// is exactly the trie walk's MissingRoute condition).
	s.rules = s.rules[:0]
	if s.byPrefix == nil {
		s.byPrefix = make(map[ipnet.Prefix]int32)
	} else {
		clear(s.byPrefix)
	}
	defIdx := int32(-1)
	for i := range tbl.Entries {
		p := tbl.Entries[i].Prefix
		if p.IsDefault() {
			defIdx = int32(i)
			continue
		}
		if j, ok := s.byPrefix[p]; ok {
			s.rules[j].idx = int32(i)
			continue
		}
		s.byPrefix[p] = int32(len(s.rules))
		s.rules = append(s.rules, ruleRef{
			first:  uint64(p.First()),
			lastEx: uint64(p.Last()) + 1,
			bits:   p.Bits,
			idx:    int32(i),
		})
	}
	// Sort by (first asc, bits asc): identical to the trie's lexicographic
	// DFS order (disjoint prefixes order by address; nested prefixes put
	// the ancestor first), which the slow path's candidate ordering and
	// the owner sweep's nesting stack both rely on. Rebuild byPrefix after
	// the sort — it indexes into the sorted slice for ancestor lookups.
	sortRules(s.rules)
	clear(s.byPrefix)
	for j := range s.rules {
		r := &s.rules[j]
		s.byPrefix[ipnet.Prefix{Addr: ipnet.Addr(r.first), Bits: r.bits}] = int32(j)
		e := &tbl.Entries[r.idx]
		s.hopBuf = canon(e.NextHops, s.hopBuf)
		r.hops, s.keyBuf = in.intern(s.hopBuf, s.keyBuf)
	}

	// Atom boundaries: every rule edge plus every specific-contract edge.
	// Including contract edges means each contract range is an exact union
	// of atoms, so coverage questions reduce to per-atom ownership.
	s.bnd = append(s.bnd[:0], 0, 1<<32)
	for j := range s.rules {
		s.bnd = append(s.bnd, s.rules[j].first, s.rules[j].lastEx)
	}
	for i := range dc.Contracts {
		ct := &dc.Contracts[i]
		if ct.Kind != contracts.Specific {
			continue
		}
		s.bnd = append(s.bnd, uint64(ct.Prefix.First()), uint64(ct.Prefix.Last())+1)
	}
	sortU64(s.bnd)
	s.bnd = dedupU64(s.bnd)
	atoms := len(s.bnd) - 1

	// Owner sweep: one pass over the atoms with a nesting stack of live
	// rules. Prefixes nest or are disjoint, so the innermost live rule —
	// the stack top — is the longest-prefix match for the whole atom.
	s.ownerBits = growU8(s.ownerBits, atoms)
	s.ownerPos = growI32(s.ownerPos, atoms)
	s.stack = s.stack[:0]
	ri := 0
	for a := 0; a < atoms; a++ {
		lo := s.bnd[a]
		for len(s.stack) > 0 && s.rules[s.stack[len(s.stack)-1]].lastEx <= lo {
			s.stack = s.stack[:len(s.stack)-1]
		}
		for ri < len(s.rules) && s.rules[ri].first == lo {
			s.stack = append(s.stack, int32(ri))
			ri++
		}
		if len(s.stack) > 0 {
			top := s.stack[len(s.stack)-1]
			s.ownerBits[a] = s.rules[top].bits
			s.ownerPos[a] = top
		} else {
			s.ownerBits[a] = 0
			s.ownerPos[a] = -1
		}
	}
	s.mark = growU32(s.mark, atoms)

	if s.badBits == nil {
		s.badBits = make(map[hopSet][]uint64)
	} else {
		clear(s.badBits)
	}

	var out []rcdc.Violation
	slow := 0
	for ci := range dc.Contracts {
		ct := dc.Contracts[ci]
		if ct.Kind == contracts.Default {
			out = c.appendDefault(out, in, s, tbl, defIdx, ct, role)
			continue
		}
		var usedSlow bool
		out, usedSlow = c.appendSpecific(out, in, s, tbl, defIdx, ct, role)
		if usedSlow {
			slow++
		}
	}
	return out, atoms, slow
}

// appendDefault checks a default contract. Trie semantics: healthy iff
// the default rule's hop set equals the contract's as a set (the trie's
// hopsOKSorted(exact)-or-sameHops disjunction is exactly set equality),
// which interning turns into one ID comparison.
func (c *Checker) appendDefault(out []rcdc.Violation, in *interner, s *scratch, tbl *fib.Table, defIdx int32, ct contracts.Contract, role topology.Role) []rcdc.Violation {
	if defIdx < 0 {
		v := rcdc.Violation{Device: ct.Device, Contract: ct, Kind: rcdc.MissingDefault}
		rcdc.Classify(&v, role)
		return append(out, v)
	}
	def := &tbl.Entries[defIdx]
	s.hopBuf = canon(def.NextHops, s.hopBuf)
	var rid hopSet
	rid, s.keyBuf = in.intern(s.hopBuf, s.keyBuf)
	s.hopBuf = canon(ct.NextHops, s.hopBuf)
	var cid hopSet
	cid, s.keyBuf = in.intern(s.hopBuf, s.keyBuf)
	if cid == rid {
		return out
	}
	missing, unexpected := rcdc.DiffHops(ct.NextHops, def.NextHops)
	v := rcdc.Violation{
		Device: ct.Device, Contract: ct, Kind: rcdc.DefaultMismatch,
		RulePrefix: def.Prefix, Missing: missing, Unexpected: unexpected,
		Remaining: len(def.NextHops),
	}
	rcdc.Classify(&v, role)
	return append(out, v)
}

// appendSpecific checks a specific contract against the device's classes.
//
// The contract range [lo, hiEx) is an exact union of atoms [aLo, aHi).
// Rules contained in the range form one contiguous segment of the sorted
// rule slice — the span [s0, s1) — because containment for prefixes means
// first in [lo, hiEx) with bits >= contract bits, and the only rules
// starting at lo with shorter bits are ancestors, skipped at the front.
//
// Three outcomes:
//
//   - Covered and clean: every atom's owner is a contained rule and no
//     rule in the span has a bad hop set. The trie walk would complete
//     coverage within the span without flagging anything — healthy, no
//     output, O(atoms in range) plus a bitset scan.
//   - Empty span: no contained rules, so every atom shares the same
//     longest strict ancestor (a shorter prefix overlapping the range
//     must contain it). The trie walk examines exactly that ancestor —
//     or none, which is MissingRoute. One memoized verdict decides it.
//   - Otherwise: exact replay of the trie walk in trie order over the
//     atoms (slow path), preserving multi-violation order and shadowed
//     rules examined before coverage completes.
func (c *Checker) appendSpecific(out []rcdc.Violation, in *interner, s *scratch, tbl *fib.Table, defIdx int32, ct contracts.Contract, role topology.Role) ([]rcdc.Violation, bool) {
	lo := uint64(ct.Prefix.First())
	hiEx := uint64(ct.Prefix.Last()) + 1
	aLo := searchU64(s.bnd, lo)
	aHi := searchU64(s.bnd, hiEx)

	s.hopBuf = canon(ct.NextHops, s.hopBuf)
	var cid hopSet
	cid, s.keyBuf = in.intern(s.hopBuf, s.keyBuf)

	if ct.Prefix.Bits == 0 {
		// Degenerate /0 specific contract: the default route itself is a
		// trie descendant of the contract prefix (sorting last among the
		// candidates) and there are no ancestors. Replay exactly.
		return c.slowPath(out, in, s, tbl, defIdx, ct, role, cid, aLo, aHi, 0, len(s.rules)), true
	}

	s0 := lowerBoundRules(s.rules, lo)
	for s0 < len(s.rules) && s.rules[s0].first == lo && s.rules[s0].bits < ct.Prefix.Bits {
		s0++
	}
	s1 := lowerBoundRules(s.rules, hiEx)

	covered := true
	for a := aLo; a < aHi; a++ {
		if s.ownerBits[a] < ct.Prefix.Bits {
			covered = false
			break
		}
	}
	if covered {
		if !c.badInSpan(in, s, cid, s0, s1) {
			return out, false
		}
		return c.slowPath(out, in, s, tbl, defIdx, ct, role, cid, aLo, aHi, s0, s1), true
	}
	if s0 == s1 {
		anc := s.ownerPos[aLo]
		if anc < 0 {
			remaining := 0
			if defIdx >= 0 {
				remaining = len(tbl.Entries[defIdx].NextHops)
			}
			v := rcdc.Violation{Device: ct.Device, Contract: ct, Kind: rcdc.MissingRoute, Remaining: remaining}
			rcdc.Classify(&v, role)
			return append(out, v), false
		}
		r := &s.rules[anc]
		if !in.bad(cid, r.hops, c.Exact) {
			return out, false
		}
		e := &tbl.Entries[r.idx]
		missing, unexpected := rcdc.DiffHops(ct.NextHops, e.NextHops)
		v := rcdc.Violation{
			Device: ct.Device, Contract: ct, Kind: rcdc.WrongNextHops,
			RulePrefix: e.Prefix, Missing: missing, Unexpected: unexpected,
			Remaining: len(e.NextHops),
		}
		rcdc.Classify(&v, role)
		return append(out, v), false
	}
	return c.slowPath(out, in, s, tbl, defIdx, ct, role, cid, aLo, aHi, s0, s1), true
}

// badInSpan reports whether any rule in [s0, s1) has a hop set violating
// the contract hop set cid, via a lazily built per-contract-hop-set
// bitset over the sorted rule order. Fleet-wide there are few distinct
// contract hop sets per device, so each bitset is built once and every
// later contract with the same expectation scans words only.
func (c *Checker) badInSpan(in *interner, s *scratch, cid hopSet, s0, s1 int) bool {
	if s0 >= s1 {
		return false
	}
	bs, ok := s.badBits[cid]
	if !ok {
		bs = make([]uint64, (len(s.rules)+63)/64)
		for j := range s.rules {
			if in.bad(cid, s.rules[j].hops, c.Exact) {
				bs[j>>6] |= 1 << uint(j&63)
			}
		}
		s.ops += int64(len(bs))
		s.badBits[cid] = bs
	}
	w0, w1 := s0>>6, (s1-1)>>6
	s.ops += int64(w1 - w0 + 1)
	if w0 == w1 {
		m := (^uint64(0) << uint(s0&63)) & (^uint64(0) >> uint(63-(s1-1)&63))
		return bs[w0]&m != 0
	}
	if bs[w0]&(^uint64(0)<<uint(s0&63)) != 0 {
		return true
	}
	for w := w0 + 1; w < w1; w++ {
		if bs[w] != 0 {
			return true
		}
	}
	return bs[w1]&(^uint64(0)>>uint(63-(s1-1)&63)) != 0
}

// slowPath replays the trie engine's candidate walk exactly: contained
// rules in lexicographic order stable-sorted by descending prefix length,
// then strict ancestors longest to shortest (the default route joins only
// for /0 contracts, where the trie counts it as a descendant), each
// candidate diffed and flagged, coverage accumulated over atoms until the
// contract range is complete, MissingRoute if the candidates run out.
func (c *Checker) slowPath(out []rcdc.Violation, in *interner, s *scratch, tbl *fib.Table, defIdx int32, ct contracts.Contract, role topology.Role, _ hopSet, aLo, aHi, s0, s1 int) []rcdc.Violation {
	s.cands = s.cands[:0]
	for j := s0; j < s1; j++ {
		s.cands = append(s.cands, int32(j))
	}
	// Stable insertion sort by bits desc, mirroring sortByPrefixLenDesc
	// over the lexicographic walk order.
	for i := 1; i < len(s.cands); i++ {
		for j := i; j > 0 && s.rules[s.cands[j]].bits > s.rules[s.cands[j-1]].bits; j-- {
			s.cands[j], s.cands[j-1] = s.cands[j-1], s.cands[j]
		}
	}
	const defaultCand = int32(-1)
	if ct.Prefix.Bits == 0 {
		if defIdx >= 0 {
			s.cands = append(s.cands, defaultCand)
		}
	} else {
		for b := int(ct.Prefix.Bits) - 1; b >= 1; b-- {
			if j, ok := s.byPrefix[ipnet.PrefixFrom(ct.Prefix.Addr, uint8(b))]; ok {
				s.cands = append(s.cands, j)
			}
		}
	}

	s.epoch++
	if s.epoch == 0 {
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.epoch = 1
	}
	remaining := aHi - aLo
	for _, cj := range s.cands {
		var e *fib.Entry
		rLo, rHi := aLo, aHi
		if cj == defaultCand {
			e = &tbl.Entries[defIdx]
		} else {
			r := &s.rules[cj]
			e = &tbl.Entries[r.idx]
			if r.bits > ct.Prefix.Bits {
				rLo = searchU64(s.bnd, r.first)
				rHi = searchU64(s.bnd, r.lastEx)
			}
		}
		missing, unexpected := rcdc.DiffHops(ct.NextHops, e.NextHops)
		bad := len(unexpected) > 0 || len(e.NextHops) == 0
		if c.Exact {
			bad = bad || len(missing) > 0
		}
		if bad {
			v := rcdc.Violation{
				Device: ct.Device, Contract: ct, Kind: rcdc.WrongNextHops,
				RulePrefix: e.Prefix, Missing: missing, Unexpected: unexpected,
				Remaining: len(e.NextHops),
			}
			rcdc.Classify(&v, role)
			out = append(out, v)
		}
		for a := rLo; a < rHi; a++ {
			if s.mark[a] != s.epoch {
				s.mark[a] = s.epoch
				remaining--
			}
		}
		if remaining == 0 {
			return out
		}
	}
	rem := 0
	if defIdx >= 0 {
		rem = len(tbl.Entries[defIdx].NextHops)
	}
	v := rcdc.Violation{Device: ct.Device, Contract: ct, Kind: rcdc.MissingRoute, Remaining: rem}
	rcdc.Classify(&v, role)
	return append(out, v)
}

// Class is one packet equivalence class of a device's destination space:
// an address interval whose members all resolve to the same longest-match
// rule. Intervals are split at every rule and specific-contract boundary,
// so adjacent classes may share an owner.
type Class struct {
	// Lo and Hi bound the class, inclusive.
	Lo, Hi ipnet.Addr
	// Owner is the longest non-default rule covering the class; HasOwner
	// is false when only the default route (or nothing) applies.
	Owner    ipnet.Prefix
	HasOwner bool
}

// Classes returns the device's equivalence classes for a FIB and contract
// set — the counterexample-facing view of the atomization, cross-checked
// against longest-prefix lookups by the differential fuzzer.
func (c *Checker) Classes(tbl *fib.Table, dc contracts.DeviceContracts) []Class {
	in, s := c.acquire()
	_, atoms, _ := c.evaluate(s, in, tbl, dc, topology.RoleToR)
	out := make([]Class, atoms)
	for a := 0; a < atoms; a++ {
		cl := Class{Lo: ipnet.Addr(s.bnd[a]), Hi: ipnet.Addr(s.bnd[a+1] - 1)}
		if p := s.ownerPos[a]; p >= 0 {
			r := &s.rules[p]
			cl.Owner = ipnet.Prefix{Addr: ipnet.Addr(r.first), Bits: r.bits}
			cl.HasOwner = true
		}
		out[a] = cl
	}
	c.pool.Put(s)
	return out
}

func sortRules(rules []ruleRef) {
	// Insertion sort keeps the hot path allocation-free (sort.Slice
	// allocates its closure); FIBs arrive nearly sorted by address, so
	// this is effectively linear.
	for i := 1; i < len(rules); i++ {
		for j := i; j > 0 && lessRule(&rules[j], &rules[j-1]); j-- {
			rules[j], rules[j-1] = rules[j-1], rules[j]
		}
	}
}

func lessRule(a, b *ruleRef) bool {
	if a.first != b.first {
		return a.first < b.first
	}
	return a.bits < b.bits
}

// lowerBoundRules returns the first index with rules[i].first >= lo.
func lowerBoundRules(rules []ruleRef, lo uint64) int {
	i, j := 0, len(rules)
	for i < j {
		h := int(uint(i+j) >> 1)
		if rules[h].first < lo {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// searchU64 returns the index of v in the sorted deduplicated slice; v is
// always present (every query point is a recorded boundary).
func searchU64(a []uint64, v uint64) int {
	i, j := 0, len(a)
	for i < j {
		h := int(uint(i+j) >> 1)
		if a[h] < v {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// sortU64 is an in-place allocation-free shellsort (Ciura gaps): the
// boundary slice is nearly sorted for real FIBs but adversarial inputs
// (fuzz, deeply nested prefixes) must not go quadratic.
func sortU64(a []uint64) {
	for _, gap := range [...]int{701, 301, 132, 57, 23, 10, 4, 1} {
		for i := gap; i < len(a); i++ {
			v := a[i]
			j := i
			for ; j >= gap && a[j-gap] > v; j -= gap {
				a[j] = a[j-gap]
			}
			a[j] = v
		}
	}
}

func dedupU64(a []uint64) []uint64 {
	n := 0
	for i := 0; i < len(a); i++ {
		if n == 0 || a[i] != a[n-1] {
			a[n] = a[i]
			n++
		}
	}
	return a[:n]
}

func growU8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

var _ rcdc.Checker = (*Checker)(nil)
