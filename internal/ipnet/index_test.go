package ipnet

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// The TestTrie* and TestHasStrictDescendant* names date from the pointer
// trie this index replaced: the queries and the expected answers are the
// trie's, only the structure answering them changed.

func indexOf(ps ...string) (*Index, []Prefix) {
	rules := make([]Prefix, len(ps))
	for i, s := range ps {
		rules[i] = MustParsePrefix(s)
	}
	return NewIndex(len(rules), func(i int) Prefix { return rules[i] }), rules
}

// descendants lists the indexed prefixes inside q with their rows, in index
// order, seeking from hint.
func descendants(x *Index, q Prefix, hint int) (ps []Prefix, rows []int) {
	pos, _ := x.Seek(q, hint)
	for end := x.RunEnd(q, pos); pos < end; pos++ {
		p, row := x.At(pos)
		ps, rows = append(ps, p), append(rows, row)
	}
	return ps, rows
}

// ancestors lists the indexed prefixes containing q (q included), shortest
// to longest.
func ancestors(x *Index, q Prefix) (ps []Prefix, rows []int) {
	pos, found := x.Seek(q, 0)
	if found {
		pos++
	}
	for pos = x.Enclosing(q, pos); pos >= 0; pos = x.Enclosing(q, pos) {
		p, row := x.At(pos)
		ps, rows = append(ps, p), append(rows, row)
	}
	slices.Reverse(ps)
	slices.Reverse(rows)
	return ps, rows
}

func hasStrictDescendant(x *Index, q Prefix) bool {
	pos, found := x.Seek(q, 0)
	if found {
		pos++
	}
	return x.RunEnd(q, pos) > pos
}

func prefixStrings(ps []Prefix) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return out
}

func TestTrieInsertGet(t *testing.T) {
	// Unsorted, with 10.0.0.0/8 held by two rows: the later one wins.
	x, rules := indexOf("192.168.1.0/24", "10.0.0.0/8", "10.20.20.0/24", "0.0.0.0/0", "10.20.0.0/16", "10.0.0.0/8")
	if x.Len() != 5 {
		t.Errorf("Len = %d, want 5", x.Len())
	}
	want := map[string]int{"192.168.1.0/24": 0, "10.0.0.0/8": 5, "10.20.20.0/24": 2, "0.0.0.0/0": 3, "10.20.0.0/16": 4}
	for _, p := range rules {
		if row, ok := x.Get(p); !ok || row != want[p.String()] {
			t.Errorf("Get(%s) = %d,%v want %d", p, row, ok, want[p.String()])
		}
	}
	if _, ok := x.Get(MustParsePrefix("10.30.0.0/16")); ok {
		t.Error("Get of absent prefix succeeded")
	}
	if empty := NewIndex(0, nil); empty.Len() != 0 {
		t.Errorf("empty Len = %d", empty.Len())
	} else if _, ok := empty.Get(Prefix{}); ok {
		t.Error("Get in empty index succeeded")
	}
}

func TestTrieLookupLPM(t *testing.T) {
	x, _ := indexOf("0.0.0.0/0", "10.0.0.0/8", "10.20.0.0/16")
	for _, c := range []struct {
		addr string
		want int
	}{
		{"10.20.1.1", 2},
		{"10.21.1.1", 1},
		{"11.0.0.1", 0},
		{"0.0.0.0", 0},
		{"255.255.255.255", 0},
	} {
		if row, ok := x.Lookup(MustParseAddr(c.addr)); !ok || row != c.want {
			t.Errorf("Lookup(%s) = %d,%v want %d", c.addr, row, ok, c.want)
		}
	}
	if _, ok := NewIndex(0, nil).Lookup(0); ok {
		t.Error("Lookup in empty index succeeded")
	}
}

func TestTrieLookupHostRoute(t *testing.T) {
	a := MustParseAddr("10.0.0.1")
	x := NewIndex(1, func(int) Prefix { return Prefix{a, 32} })
	if row, ok := x.Lookup(a); !ok || row != 0 {
		t.Errorf("Lookup host route = %d,%v", row, ok)
	}
	for _, other := range []Addr{a + 1, a - 1} {
		if _, ok := x.Lookup(other); ok {
			t.Errorf("adjacent address %v matched host route", other)
		}
	}
}

func TestTrieAncestorsDescendants(t *testing.T) {
	x, _ := indexOf("192.168.0.0/16", "10.20.20.0/28", "0.0.0.0/0", "10.20.0.0/16", "10.0.0.0/8", "10.20.20.0/24")
	anc, _ := ancestors(x, MustParsePrefix("10.20.20.0/24"))
	if got, want := prefixStrings(anc), []string{"0.0.0.0/0", "10.0.0.0/8", "10.20.0.0/16", "10.20.20.0/24"}; !slices.Equal(got, want) {
		t.Errorf("ancestors = %v, want %v", got, want)
	}
	// A prefix that is not indexed still has its ancestors and descendants.
	anc, _ = ancestors(x, MustParsePrefix("10.20.20.16/28"))
	if got, want := prefixStrings(anc), []string{"0.0.0.0/0", "10.0.0.0/8", "10.20.0.0/16", "10.20.20.0/24"}; !slices.Equal(got, want) {
		t.Errorf("ancestors of an absent prefix = %v, want %v", got, want)
	}
	desc, _ := descendants(x, MustParsePrefix("10.20.0.0/16"), 0)
	if got, want := prefixStrings(desc), []string{"10.20.0.0/16", "10.20.20.0/24", "10.20.20.0/28"}; !slices.Equal(got, want) {
		t.Errorf("descendants = %v, want %v", got, want)
	}
	desc, _ = descendants(x, MustParsePrefix("10.20.0.0/15"), 0)
	if got, want := prefixStrings(desc), []string{"10.20.0.0/16", "10.20.20.0/24", "10.20.20.0/28"}; !slices.Equal(got, want) {
		t.Errorf("descendants of an absent prefix = %v, want %v", got, want)
	}
}

func TestTrieWalkOrder(t *testing.T) {
	x, _ := indexOf("192.168.0.0/16", "10.0.0.0/8", "10.20.0.0/16", "0.0.0.0/0", "10.0.0.0/9")
	var got []string
	for pos := 0; pos < x.Len(); pos++ {
		p, _ := x.At(pos)
		got = append(got, p.String())
	}
	want := []string{"0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/9", "10.20.0.0/16", "192.168.0.0/16"}
	if !slices.Equal(got, want) {
		t.Errorf("index order = %v, want %v", got, want)
	}
}

func TestHasStrictDescendant(t *testing.T) {
	x, _ := indexOf("10.0.0.0/8", "10.20.0.0/16")
	for _, c := range []struct {
		q    string
		want bool
	}{
		{"10.0.0.0/8", true},    // /16 below
		{"10.20.0.0/16", false}, // nothing strictly below
		{"10.0.0.0/9", true},    // /16 is inside the /9
		{"10.128.0.0/9", false}, // other half is empty
		{"0.0.0.0/0", true},
		{"11.0.0.0/8", false},
		{"10.20.0.0/24", false},
	} {
		if got := hasStrictDescendant(x, MustParsePrefix(c.q)); got != c.want {
			t.Errorf("hasStrictDescendant(%s) = %v, want %v", c.q, got, c.want)
		}
	}
}

// checkAgainstScan compares every query the index answers with a linear
// scan over the rules (row i holds rules[i]; a later row replaces an earlier
// one with the same prefix), for each query prefix and its first address.
func checkAgainstScan(t *testing.T, rules, queries []Prefix, hint int) {
	t.Helper()
	x := NewIndex(len(rules), func(i int) Prefix { return rules[i] })
	last := map[Prefix]int{}
	for i, p := range rules {
		last[p] = i
	}
	distinct := make([]Prefix, 0, len(last))
	for p := range last {
		distinct = append(distinct, p)
	}
	slices.SortFunc(distinct, Prefix.Compare)
	if x.Len() != len(distinct) {
		t.Fatalf("Len = %d, want %d distinct of %v", x.Len(), len(distinct), rules)
	}
	rowsOf := func(ps []Prefix) []int {
		out := make([]int, len(ps))
		for i, p := range ps {
			out[i] = last[p]
		}
		return out
	}
	if row, ok := x.Get(Prefix{}); ok != (len(distinct) > 0 && distinct[0].IsDefault()) || ok && row != last[Prefix{}] {
		t.Fatalf("default row = %d,%v over %v", row, ok, rules)
	}
	for _, q := range queries {
		wantRow, want := last[q]
		if row, ok := x.Get(q); ok != want || ok && row != wantRow {
			t.Fatalf("Get(%v) = %d,%v want %d,%v over %v", q, row, ok, wantRow, want, rules)
		}
		pos, found := x.Seek(q, 0)
		if hpos, hfound := x.Seek(q, hint); hpos != pos || hfound != found {
			t.Fatalf("Seek(%v, hint %d) = %d,%v, without the hint %d,%v over %v", q, hint, hpos, hfound, pos, found, rules)
		}

		var inside, around []Prefix // distinct is in Compare order: so are these
		strict := false
		for _, p := range distinct {
			if q.ContainsPrefix(p) {
				inside = append(inside, p)
				strict = strict || p != q
			}
			if p.ContainsPrefix(q) {
				around = append(around, p) // nested, so ascending is shortest first
			}
		}
		if ps, rows := descendants(x, q, hint); !slices.Equal(ps, inside) || !slices.Equal(rows, rowsOf(inside)) {
			t.Fatalf("descendants(%v) = %v rows %v, want %v rows %v over %v", q, ps, rows, inside, rowsOf(inside), rules)
		}
		if ps, rows := ancestors(x, q); !slices.Equal(ps, around) || !slices.Equal(rows, rowsOf(around)) {
			t.Fatalf("ancestors(%v) = %v rows %v, want %v rows %v over %v", q, ps, rows, around, rowsOf(around), rules)
		}
		if got := hasStrictDescendant(x, q); got != strict {
			t.Fatalf("hasStrictDescendant(%v) = %v, want %v over %v", q, got, strict, rules)
		}

		a := q.First()
		best := -1
		for i, p := range distinct {
			if p.Contains(a) && (best < 0 || p.Bits > distinct[best].Bits) {
				best = i
			}
		}
		if row, ok := x.Lookup(a); ok != (best >= 0) || ok && row != last[distinct[best]] {
			t.Fatalf("Lookup(%v) = %d,%v, want match %v over %v", a, row, ok, best >= 0, rules)
		}
	}
}

// randomRules draws prefixes clustered under a few /8s so that nesting,
// duplicates, /32s and the default row all turn up, in no particular order.
func randomRules(rng *rand.Rand, n int) []Prefix {
	out := make([]Prefix, n)
	for i := range out {
		switch rng.Intn(10) {
		case 0:
			out[i] = Prefix{}
		case 1:
			out[i] = Prefix{Addr(rng.Intn(4)<<24 | rng.Intn(8)), 32}
		case 2:
			if i > 0 {
				out[i] = out[rng.Intn(i)] // a duplicate
				break
			}
			fallthrough
		default:
			out[i] = PrefixFrom(Addr(rng.Intn(4)<<24|rng.Intn(1<<24)), uint8(rng.Intn(33)))
		}
	}
	return out
}

// TestTrieLookupMatchesLinearScan cross-checks every index query against a
// brute-force scan on random rule sets: unsorted insertion with duplicates,
// the default row, /32s and nested aggregates, with and without a hint.
func TestTrieLookupMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		rules := randomRules(rng, rng.Intn(60))
		queries := append(randomRules(rng, 20), rules...)
		checkAgainstScan(t, rules, queries, rng.Intn(len(rules)+3)-1)
	}
}

// TestTrieRelatedMatchesLinearScan does the same over already-sorted input
// (the as-it-stands build path) and a flat plan with one aggregate over it.
func TestTrieRelatedMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 100; iter++ {
		rules := randomRules(rng, 1+rng.Intn(40))
		slices.SortFunc(rules, Prefix.Compare)
		rules = slices.Compact(rules)
		checkAgainstScan(t, rules, append(randomRules(rng, 20), rules...), rng.Intn(len(rules)+1))
	}
	plan := []Prefix{{}, MustParsePrefix("10.0.0.0/8")}
	for i := 0; i < 64; i++ {
		plan = append(plan, Prefix{MustParseAddr("10.0.0.0") + Addr(i)<<8, 24})
	}
	for hint := range plan {
		checkAgainstScan(t, plan, plan, hint)
	}
}

func TestHasStrictDescendantMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for iter := 0; iter < 100; iter++ {
		var rules []Prefix
		for i := 0; i < 1+rng.Intn(20); i++ {
			rules = append(rules, PrefixFrom(Addr(rng.Uint32()), uint8(rng.Intn(20))))
		}
		x := NewIndex(len(rules), func(i int) Prefix { return rules[i] })
		for s := 0; s < 30; s++ {
			q := PrefixFrom(Addr(rng.Uint32()), uint8(rng.Intn(22)))
			want := false
			for _, p := range rules {
				want = want || p != q && q.ContainsPrefix(p)
			}
			if got := hasStrictDescendant(x, q); got != want {
				t.Fatalf("iter %d: hasStrictDescendant(%v) = %v, want %v", iter, q, got, want)
			}
		}
	}
}

// FuzzPrefixIndex feeds arbitrary rule lists to the index and compares it
// with the linear scan. Input: a hint byte, then 5-byte prefixes (address,
// length); every rule is also a query, as is each rule's parent and first
// host address.
func FuzzPrefixIndex(f *testing.F) {
	seed := func(hint byte, ps ...string) {
		b := []byte{hint}
		for _, s := range ps {
			p := MustParsePrefix(s)
			b = binary.BigEndian.AppendUint32(b, uint32(p.Addr))
			b = append(b, p.Bits)
		}
		f.Add(b)
	}
	seed(0)
	seed(1, "0.0.0.0/0")
	seed(2, "10.0.1.0/24", "0.0.0.0/0", "10.0.0.0/24", "10.0.0.0/8", "10.0.1.0/24", "10.0.0.1/32")
	seed(9, "10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24")
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+5*64 {
			return
		}
		hint := int(data[0]) - 1
		var rules, queries []Prefix
		for b := data[1:]; len(b) >= 5; b = b[5:] {
			p := PrefixFrom(Addr(binary.BigEndian.Uint32(b)), b[4]%33)
			rules = append(rules, p)
			queries = append(queries, p, Prefix{p.First(), 32})
			if p.Bits > 0 {
				queries = append(queries, PrefixFrom(p.Addr, p.Bits-1))
			}
		}
		checkAgainstScan(t, rules, queries, hint)
	})
}
