package ipnet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xffffffff, true},
		{"10.3.129.224", 0x0a0381e0, true},
		{"1.2.3.4", 0x01020304, true},
		{"192.168.0.1", 0xc0a80001, true},
		{"256.0.0.1", 0, false},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"", 0, false},
		{"a.b.c.d", 0, false},
		{"01.2.3.4", 0, false}, // leading zero rejected
		{"1.2.3.-4", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseAddr(%q) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseAddr(%q) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(a uint32) bool {
		addr := Addr(a)
		back, err := ParseAddr(addr.String())
		return err == nil && back == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParsePrefix(t *testing.T) {
	cases := []struct {
		in   string
		ok   bool
		bits uint8
	}{
		{"10.0.0.0/8", true, 8},
		{"0.0.0.0/0", true, 0},
		{"10.3.129.224/28", true, 28},
		{"1.2.3.4", true, 32}, // bare address is /32
		{"10.0.0.1/8", false, 0},
		{"10.0.0.0/33", false, 0},
		{"10.0.0.0/x", false, 0},
	}
	for _, c := range cases {
		p, err := ParsePrefix(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParsePrefix(%q) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && p.Bits != c.bits {
			t.Errorf("ParsePrefix(%q).Bits = %d, want %d", c.in, p.Bits, c.bits)
		}
	}
}

func TestPrefixStringRoundTrip(t *testing.T) {
	f := func(a uint32, b uint8) bool {
		p := PrefixFrom(Addr(a), b%33)
		back, err := ParsePrefix(p.String())
		return err == nil && back == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixFirstLast(t *testing.T) {
	p := MustParsePrefix("10.20.20.0/24")
	if p.First() != MustParseAddr("10.20.20.0") {
		t.Errorf("First = %v", p.First())
	}
	if p.Last() != MustParseAddr("10.20.20.255") {
		t.Errorf("Last = %v", p.Last())
	}
	d := Prefix{}
	if d.First() != 0 || d.Last() != 0xffffffff {
		t.Errorf("default route range = %v-%v", d.First(), d.Last())
	}
	host := MustParsePrefix("1.2.3.4/32")
	if host.First() != host.Last() {
		t.Errorf("host route First != Last")
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	if !p.Contains(MustParseAddr("10.255.255.255")) {
		t.Error("10/8 should contain 10.255.255.255")
	}
	if p.Contains(MustParseAddr("11.0.0.0")) {
		t.Error("10/8 should not contain 11.0.0.0")
	}
}

func TestPrefixContainsPrefix(t *testing.T) {
	p8 := MustParsePrefix("10.0.0.0/8")
	p16 := MustParsePrefix("10.20.0.0/16")
	p16b := MustParsePrefix("11.20.0.0/16")
	if !p8.ContainsPrefix(p16) {
		t.Error("10/8 should contain 10.20/16")
	}
	if p16.ContainsPrefix(p8) {
		t.Error("10.20/16 should not contain 10/8")
	}
	if !p8.ContainsPrefix(p8) {
		t.Error("prefix should contain itself")
	}
	if p8.ContainsPrefix(p16b) {
		t.Error("10/8 should not contain 11.20/16")
	}
}

func TestPrefixOverlaps(t *testing.T) {
	a := MustParsePrefix("10.0.0.0/8")
	b := MustParsePrefix("10.20.0.0/16")
	c := MustParsePrefix("172.16.0.0/12")
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("10/8 and 10.20/16 overlap")
	}
	if a.Overlaps(c) {
		t.Error("10/8 and 172.16/12 do not overlap")
	}
}

func TestPrefixChildren(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	l, r := p.Children()
	if l != MustParsePrefix("10.0.0.0/9") || r != MustParsePrefix("10.128.0.0/9") {
		t.Errorf("Children = %v, %v", l, r)
	}
	// Children partition the parent.
	if l.Last()+1 != r.First() || l.First() != p.First() || r.Last() != p.Last() {
		t.Error("children do not partition parent")
	}
}

func TestPrefixCompare(t *testing.T) {
	ps := []Prefix{
		MustParsePrefix("0.0.0.0/0"),
		MustParsePrefix("10.0.0.0/8"),
		MustParsePrefix("10.0.0.0/16"),
		MustParsePrefix("10.1.0.0/16"),
	}
	for i := range ps {
		for j := range ps {
			got := ps[i].Compare(ps[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v,%v) = %d, want %d", ps[i], ps[j], got, want)
			}
		}
	}
}

func TestRangeBasics(t *testing.T) {
	r := RangeOf(MustParsePrefix("10.0.0.0/8"))
	if !r.Contains(MustParseAddr("10.128.0.0")) {
		t.Error("range should contain 10.128.0.0")
	}
	if r.Contains(MustParseAddr("11.0.0.0")) {
		t.Error("range should not contain 11.0.0.0")
	}
	if r.Size() != 1<<24 {
		t.Errorf("Size = %d", r.Size())
	}
	empty := Range{10, 5}
	if !empty.Empty() || empty.Size() != 0 {
		t.Error("inverted range should be empty")
	}
}

func TestRangeIntersect(t *testing.T) {
	a := Range{10, 20}
	b := Range{15, 30}
	got := a.Intersect(b)
	if got != (Range{15, 20}) {
		t.Errorf("Intersect = %v", got)
	}
	c := Range{21, 30}
	if !a.Intersect(c).Empty() {
		t.Error("disjoint ranges should intersect to empty")
	}
}

func TestRangePrefixes(t *testing.T) {
	// A full prefix decomposes to itself.
	p := MustParsePrefix("10.0.0.0/8")
	ps := RangeOf(p).Prefixes()
	if len(ps) != 1 || ps[0] != p {
		t.Errorf("Prefixes(10/8) = %v", ps)
	}
	// 10.0.0.1 - 10.0.0.6 = .1/32 .2/31 .4/31 .6/32
	r := Range{MustParseAddr("10.0.0.1"), MustParseAddr("10.0.0.6")}
	ps = r.Prefixes()
	want := []string{"10.0.0.1/32", "10.0.0.2/31", "10.0.0.4/31", "10.0.0.6/32"}
	if len(ps) != len(want) {
		t.Fatalf("Prefixes(%v) = %v", r, ps)
	}
	for i, w := range want {
		if ps[i].String() != w {
			t.Errorf("Prefixes[%d] = %v, want %s", i, ps[i], w)
		}
	}
}

func TestRangePrefixesProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		lo, hi := Addr(a), Addr(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		r := Range{lo, hi}
		ps := r.Prefixes()
		// Union of prefixes must exactly tile the range, in order, disjoint.
		var total uint64
		cur := lo
		for i, p := range ps {
			if p.First() != cur {
				return false
			}
			total += p.NumAddrs()
			if i < len(ps)-1 {
				cur = p.Last() + 1
			} else if p.Last() != hi {
				return false
			}
		}
		return total == r.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSubtractPrefixes(t *testing.T) {
	full := Range{0, ^Addr(0)}
	out := full.SubtractPrefixes([]Prefix{MustParsePrefix("10.0.0.0/8")})
	if len(out) != 2 {
		t.Fatalf("SubtractPrefixes = %v", out)
	}
	if out[0] != (Range{0, MustParseAddr("9.255.255.255")}) {
		t.Errorf("out[0] = %v", out[0])
	}
	if out[1] != (Range{MustParseAddr("11.0.0.0"), ^Addr(0)}) {
		t.Errorf("out[1] = %v", out[1])
	}

	// Subtracting everything leaves nothing.
	out = full.SubtractPrefixes([]Prefix{{}})
	if len(out) != 0 {
		t.Errorf("subtracting default route left %v", out)
	}

	// Subtracting nothing leaves the full range.
	out = full.SubtractPrefixes(nil)
	if len(out) != 1 || out[0] != full {
		t.Errorf("subtracting nothing = %v", out)
	}

	// Overlapping and unsorted holes.
	out = full.SubtractPrefixes([]Prefix{
		MustParsePrefix("10.0.0.0/8"),
		MustParsePrefix("10.20.0.0/16"),
		MustParsePrefix("9.0.0.0/8"),
	})
	if len(out) != 2 {
		t.Fatalf("SubtractPrefixes overlapping = %v", out)
	}
	if out[0].Hi != MustParseAddr("8.255.255.255") || out[1].Lo != MustParseAddr("11.0.0.0") {
		t.Errorf("SubtractPrefixes overlapping = %v", out)
	}
}

func TestSubtractPrefixesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		full := Range{0, ^Addr(0)}
		var holes []Prefix
		n := rng.Intn(6)
		for i := 0; i < n; i++ {
			holes = append(holes, PrefixFrom(Addr(rng.Uint32()), uint8(rng.Intn(33))))
		}
		out := full.SubtractPrefixes(holes)
		// Sample addresses and verify membership agrees with direct check.
		for s := 0; s < 50; s++ {
			a := Addr(rng.Uint32())
			inHole := false
			for _, h := range holes {
				if h.Contains(a) {
					inHole = true
					break
				}
			}
			inOut := false
			for _, r := range out {
				if r.Contains(a) {
					inOut = true
					break
				}
			}
			if inHole == inOut {
				t.Fatalf("iter %d: addr %v inHole=%v inOut=%v holes=%v out=%v",
					iter, a, inHole, inOut, holes, out)
			}
		}
	}
}

func TestRangeAndPrefixHelpers(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	if p.Mask() != MustParseAddr("255.0.0.0") {
		t.Errorf("Mask = %v", p.Mask())
	}
	if !(Prefix{}).IsDefault() || p.IsDefault() {
		t.Error("IsDefault wrong")
	}
	r := Range{10, 20}
	if !r.ContainsRange(Range{12, 18}) || r.ContainsRange(Range{12, 25}) {
		t.Error("ContainsRange wrong")
	}
	if !r.Overlaps(Range{20, 30}) || r.Overlaps(Range{21, 30}) {
		t.Error("Range.Overlaps wrong")
	}
	if r.String() != "0.0.0.10-0.0.0.20" {
		t.Errorf("Range.String = %q", r.String())
	}
}

func TestOverlapRunMatchesLinearScan(t *testing.T) {
	// A flat plan with gaps and mixed lengths.
	var plan []Prefix
	for _, s := range []string{"10.0.0.0/24", "10.0.1.0/25", "10.0.1.128/25", "10.0.4.0/22", "10.0.9.0/24", "10.1.0.0/16"} {
		plan = append(plan, MustParsePrefix(s))
	}
	at := func(i int) Prefix { return plan[i] }
	for _, q := range []string{"0.0.0.0/0", "10.0.0.0/8", "10.0.1.0/24", "10.0.1.64/26", "10.0.2.0/24",
		"10.0.4.0/24", "10.0.0.0/21", "10.1.200.0/24", "9.0.0.0/8", "11.0.0.0/8", "10.0.9.0/24"} {
		p := MustParsePrefix(q)
		lo, hi := OverlapRun(len(plan), at, p)
		for i := range plan {
			if got, want := lo <= i && i < hi, plan[i].Overlaps(p); got != want {
				t.Errorf("%s vs %s: in run = %v, overlaps = %v", q, plan[i], got, want)
			}
		}
	}
}
