package ipnet

import (
	"math/bits"
	"sort"
)

// Index is an immutable sorted prefix index over the rows of a rule table:
// the distinct prefixes in Compare order (address, then length), each with
// the row that holds it. That order is the pre-order of the binary prefix
// trie — a prefix sorts before everything it contains, and everything it
// contains sorts before the next disjoint prefix — so the ordered list
// answers the trie's queries without the pointers: the stored prefixes
// inside q are the contiguous run that starts at q's position, "q has a
// strict descendant" is a look at the next key, an exact match is one
// binary search, and the prefixes containing q are reached by predecessor
// searches (Enclosing). It backs both FIB longest-prefix match and the
// candidate walk of the RCDC checker (§2.5.2).
//
// Positions (what Seek returns and At, RunEnd and Enclosing take) count
// keys in Compare order; rows are the caller's numbering.
type Index struct {
	keys []indexKey
}

type indexKey struct {
	Prefix
	row int32
}

// NewIndex indexes rows 0..n-1, row i holding prefix at(i). Rows may come
// in any order — input already strictly ascending is taken as it stands,
// anything else is put in order by merging its maximal ascending runs, which
// is linear for the few runs a synthesized table has (connected rows, then
// the default, then the specifics) — and when several rows hold the same
// prefix the last one wins, as a later insert replaces an earlier one.
func NewIndex(n int, at func(int) Prefix) *Index {
	keys := make([]indexKey, n)
	descents, dups := false, false
	for i := range keys {
		keys[i] = indexKey{at(i), int32(i)}
		if i > 0 {
			c := keys[i-1].Compare(keys[i].Prefix)
			descents, dups = descents || c > 0, dups || c == 0
		}
	}
	if descents {
		keys = mergeRuns(keys)
	}
	if descents || dups {
		// Equal prefixes are now adjacent, in row order: keep the last.
		w := 0
		for _, k := range keys {
			if w > 0 && keys[w-1].Prefix == k.Prefix {
				keys[w-1] = k
				continue
			}
			keys[w] = k
			w++
		}
		keys = keys[:w]
	}
	return &Index{keys: keys}
}

// mergeRuns sorts keys by prefix, stably, by merging neighbouring maximal
// non-descending runs pass after pass (a natural merge sort): O(n log r)
// for r runs.
func mergeRuns(keys []indexKey) []indexKey {
	buf := make([]indexKey, len(keys))
	for {
		out, runs := buf[:0], 0
		for i := 0; i < len(keys); runs++ {
			mid := runEnd(keys, i)
			end := runEnd(keys, mid)
			out = mergeTwo(out, keys[i:mid], keys[mid:end])
			i = end
		}
		keys, buf = out, keys
		if runs == 1 {
			return keys
		}
	}
}

// runEnd returns the end of the maximal non-descending run starting at i.
func runEnd(keys []indexKey, i int) int {
	if i == len(keys) {
		return i
	}
	for i++; i < len(keys) && keys[i-1].Compare(keys[i].Prefix) <= 0; i++ {
	}
	return i
}

// mergeTwo appends the stable merge of two sorted runs to out, a taking
// ties.
func mergeTwo(out, a, b []indexKey) []indexKey {
	for len(a) > 0 && len(b) > 0 {
		if b[0].Compare(a[0].Prefix) < 0 {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}

// Len returns the number of distinct prefixes indexed.
func (x *Index) Len() int { return len(x.keys) }

// At returns the prefix at a position and the row that holds it.
func (x *Index) At(pos int) (Prefix, int) {
	k := &x.keys[pos]
	return k.Prefix, int(k.row)
}

// Seek returns the position of the first key not before p — p's own
// position if it is indexed, which found reports — trying hint first. A
// caller that asks for ascending prefixes passes the position after its
// last answer and pays two comparisons instead of a search; a wrong hint
// (any value) only costs the search.
func (x *Index) Seek(p Prefix, hint int) (pos int, found bool) {
	k := x.keys
	if hint >= 0 && hint < len(k) && k[hint].Prefix == p {
		return hint, true
	}
	if hint >= 0 && hint <= len(k) && (hint == 0 || k[hint-1].Compare(p) < 0) && (hint == len(k) || k[hint].Compare(p) > 0) {
		return hint, false
	}
	pos = sort.Search(len(k), func(i int) bool { return k[i].Compare(p) >= 0 })
	return pos, pos < len(k) && k[pos].Prefix == p
}

// RunEnd returns the end of the run of keys inside q that begins at pos,
// which must be q's position (Seek): keys [pos, RunEnd) are exactly the
// indexed prefixes q contains, q itself first if it is indexed.
func (x *Index) RunEnd(q Prefix, pos int) int {
	for pos < len(x.keys) && q.ContainsPrefix(x.keys[pos].Prefix) {
		pos++
	}
	return pos
}

// Enclosing returns the position of the longest indexed prefix containing
// q among the keys below position before, or -1. before must not exceed
// q's own position, so that every key skipped sorts before q; passing the
// previous answer back in walks q's ancestors from longest to shortest.
func (x *Index) Enclosing(q Prefix, before int) int {
	for before > 0 {
		k := x.keys[before-1].Prefix
		if k.ContainsPrefix(q) {
			return before - 1
		}
		// k sorts between q and whatever contains q, so that prefix
		// contains k too: it is at or before the two's common prefix,
		// which is strictly shorter than k.
		n := min(uint8(bits.LeadingZeros32(uint32(k.Addr^q.Addr))), k.Bits, q.Bits)
		pos, found := x.Seek(PrefixFrom(q.Addr, n), before-1)
		if found {
			return pos
		}
		before = pos
	}
	return -1
}

// Get returns the row holding exactly p.
func (x *Index) Get(p Prefix) (row int, ok bool) {
	pos, found := x.Seek(p, 0)
	if !found {
		return 0, false
	}
	return int(x.keys[pos].row), true
}

// Lookup returns the row of the longest indexed prefix containing a.
func (x *Index) Lookup(a Addr) (row int, ok bool) {
	q := Prefix{a, 32}
	pos, found := x.Seek(q, 0)
	if !found {
		pos = x.Enclosing(q, pos)
	}
	if pos < 0 {
		return 0, false
	}
	return int(x.keys[pos].row), true
}
