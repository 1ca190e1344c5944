package pec

import (
	"sync"

	"dcvalidate/internal/contracts"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/topology"
)

// hopSet is the interned identity of a canonical (sorted, deduplicated)
// ECMP next-hop set. Two rules or contracts carrying the same hop set —
// in any order, with any duplication — intern to the same ID, so a
// contract-vs-rule satisfaction verdict is computed once per distinct
// (contract set, rule set) pair and every later occurrence across the
// whole fleet is a single memo hit.
type hopSet uint32

// interner maps canonical next-hop sets to dense IDs backed by one shared
// slice, and memoizes per-pair satisfaction verdicts. It is owned by a
// Checker and shared by every device it validates: fleet-wide there are
// only a handful of distinct ECMP sets (uplink sets, per-cluster downlink
// sets, per-ToR delivery sets), so the maps stay tiny while the verdict
// memo absorbs almost all hop-set comparisons.
type interner struct {
	mu    sync.Mutex
	ids   map[string]hopSet
	off   []uint32 // set i occupies elems[off[i]:off[i+1]]
	elems []topology.DeviceID
	sat   map[uint64]bool // contract<<32|rule -> rule violates contract
}

func newInterner() *interner {
	return &interner{ids: map[string]hopSet{}, off: []uint32{0}, sat: map[uint64]bool{}}
}

// canon writes the canonical form of hops into buf — sorted ascending,
// duplicates removed — and returns it. Allocation-free once buf has
// capacity; ECMP sets are tiny, so insertion sort wins over sort.Slice
// (which would also allocate its closure).
func canon(hops []topology.DeviceID, buf []topology.DeviceID) []topology.DeviceID {
	buf = append(buf[:0], hops...)
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && buf[j] < buf[j-1]; j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	n := 0
	for i := 0; i < len(buf); i++ {
		if n == 0 || buf[i] != buf[n-1] {
			buf[n] = buf[i]
			n++
		}
	}
	return buf[:n]
}

// intern returns the ID of a canonical hop set, adding it to elems on
// first sight. key is reusable scratch for the byte encoding; the
// map[string] lookup through string(key) does not allocate on hit.
func (in *interner) intern(canonical []topology.DeviceID, key []byte) (hopSet, []byte) {
	key = key[:0]
	for _, d := range canonical {
		v := uint64(d)
		key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	in.mu.Lock()
	id, ok := in.ids[string(key)]
	if !ok {
		id = hopSet(len(in.off) - 1)
		in.ids[string(key)] = id
		in.elems = append(in.elems, canonical...)
		in.off = append(in.off, uint32(len(in.elems)))
	}
	in.mu.Unlock()
	return id, key
}

// setLocked returns the canonical members of an interned set. Caller
// holds in.mu (the elems backing may move under concurrent interning).
func (in *interner) setLocked(id hopSet) []topology.DeviceID {
	return in.elems[in.off[id]:in.off[id+1]]
}

// count returns the number of distinct interned hop sets.
func (in *interner) count() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.off) - 1
}

// bad reports whether a rule whose canonical hop set is r violates a
// contract whose canonical hop set is c, under the same satisfaction rule
// as the trie engine's walk: any hop outside the contract set, an empty
// set, or — under exact semantics — a contract hop the rule lacks.
// Verdicts are memoized per (contract, rule) pair; exact is fixed per
// Checker, and each Checker owns its interner, so it is not in the key.
func (in *interner) bad(c, r hopSet, exact bool) bool {
	key := uint64(c)<<32 | uint64(r)
	in.mu.Lock()
	v, ok := in.sat[key]
	if !ok {
		cs, rs := in.setLocked(c), in.setLocked(r)
		v = len(rs) == 0 || !subsetOf(rs, cs)
		if exact && !v {
			v = !subsetOf(cs, rs)
		}
		in.sat[key] = v
	}
	in.mu.Unlock()
	return v
}

// subsetOf reports a ⊆ b for sorted strictly-ascending slices.
func subsetOf(a, b []topology.DeviceID) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// FNV-1a over 64-bit words. The synth layer hands out a fresh table per
// pull, so pointer identity can never prove
// "unchanged" — content hashing is what makes the per-device atomization
// cache effective across sweeps. Mixing whole words instead of bytes
// keeps the warm-path hash an order of magnitude cheaper than the
// validation it elides.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, v uint64) uint64 {
	return (h ^ v) * fnvPrime
}

// hashTable fingerprints a FIB's full content: prefixes, next-hop sets,
// and connected flags, in entry order.
func hashTable(t *fib.Table) uint64 {
	h := uint64(fnvOffset)
	h = mix(h, uint64(len(t.Entries)))
	for i := range t.Entries {
		e := &t.Entries[i]
		h = mix(h, uint64(e.Prefix.Addr)<<8|uint64(e.Prefix.Bits))
		if e.Connected {
			h = mix(h, 1)
		} else {
			h = mix(h, 2)
		}
		h = mix(h, uint64(len(e.NextHops)))
		for _, nh := range e.NextHops {
			h = mix(h, uint64(nh))
		}
	}
	return h
}

// hashContracts fingerprints a device's contract set plus the role that
// feeds severity classification.
func hashContracts(dc contracts.DeviceContracts, role topology.Role) uint64 {
	h := uint64(fnvOffset)
	h = mix(h, uint64(role))
	h = mix(h, uint64(len(dc.Contracts)))
	for i := range dc.Contracts {
		c := &dc.Contracts[i]
		h = mix(h, uint64(c.Kind))
		h = mix(h, uint64(c.Prefix.Addr)<<8|uint64(c.Prefix.Bits))
		h = mix(h, uint64(len(c.NextHops)))
		for _, nh := range c.NextHops {
			h = mix(h, uint64(nh))
		}
	}
	return h
}
