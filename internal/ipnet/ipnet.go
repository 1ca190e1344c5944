// Package ipnet provides compact IPv4 address, prefix, and range types used
// throughout the datacenter validation stack.
//
// Addresses are represented as uint32 in host order so that prefix
// containment, range arithmetic, and bit-vector encoding are cheap and
// allocation-free. The package also provides a sorted prefix index (Index),
// which backs both the FIB longest-prefix-match lookup and the RCDC
// contract checker.
package ipnet

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order.
type Addr uint32

// ParseAddr parses dotted-quad notation ("10.3.129.224").
func ParseAddr(s string) (Addr, error) {
	var parts [4]uint32
	rest := s
	for i := 0; i < 4; i++ {
		var tok string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("ipnet: invalid address %q", s)
			}
			tok, rest = rest[:dot], rest[dot+1:]
		} else {
			tok = rest
		}
		v, err := strconv.ParseUint(tok, 10, 32)
		if err != nil || v > 255 || tok == "" || (len(tok) > 1 && tok[0] == '0') {
			return 0, fmt.Errorf("ipnet: invalid address %q", s)
		}
		parts[i] = uint32(v)
	}
	return Addr(parts[0]<<24 | parts[1]<<16 | parts[2]<<8 | parts[3]), nil
}

// MustParseAddr is ParseAddr that panics on error; for tests and literals.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String formats the address in dotted-quad notation.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Prefix is an IPv4 CIDR prefix: the top Bits bits of Addr are significant.
// The zero value is 0.0.0.0/0, the default route.
type Prefix struct {
	Addr Addr
	Bits uint8
}

// ParsePrefix parses CIDR notation ("10.3.129.224/28"). A bare address is
// treated as a /32.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		a, err := ParseAddr(s)
		if err != nil {
			return Prefix{}, err
		}
		return Prefix{a, 32}, nil
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.ParseUint(s[slash+1:], 10, 8)
	if err != nil || bits > 32 {
		return Prefix{}, fmt.Errorf("ipnet: invalid prefix length in %q", s)
	}
	p := Prefix{a, uint8(bits)}
	if p.Addr&^p.netmask() != 0 {
		return Prefix{}, fmt.Errorf("ipnet: %q has host bits set", s)
	}
	return p, nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// PrefixFrom returns the prefix of the given length containing a, with host
// bits cleared.
func PrefixFrom(a Addr, bits uint8) Prefix {
	if bits > 32 {
		bits = 32
	}
	p := Prefix{Bits: bits}
	p.Addr = a & p.netmask()
	return p
}

func (p Prefix) netmask() Addr {
	if p.Bits == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - p.Bits))
}

// Mask returns the netmask of the prefix as an address.
func (p Prefix) Mask() Addr { return p.netmask() }

// First returns the lowest address in the prefix.
func (p Prefix) First() Addr { return p.Addr }

// Last returns the highest address in the prefix.
func (p Prefix) Last() Addr { return p.Addr | ^p.netmask() }

// Contains reports whether a is inside the prefix.
func (p Prefix) Contains(a Addr) bool { return a&p.netmask() == p.Addr }

// ContainsPrefix reports whether q is a (non-strict) sub-prefix of p.
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return q.Bits >= p.Bits && p.Contains(q.Addr)
}

// Overlaps reports whether the two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.ContainsPrefix(q) || q.ContainsPrefix(p)
}

// IsDefault reports whether p is the default route 0.0.0.0/0.
func (p Prefix) IsDefault() bool { return p == Prefix{} }

// Children returns the two halves of p. Panics on a /32.
func (p Prefix) Children() (left, right Prefix) {
	if p.Bits >= 32 {
		panic("ipnet: Children of /32")
	}
	left = Prefix{p.Addr, p.Bits + 1}
	right = Prefix{p.Addr | (1 << (31 - p.Bits)), p.Bits + 1}
	return left, right
}

// NumAddrs returns the number of addresses covered by the prefix.
func (p Prefix) NumAddrs() uint64 { return 1 << (32 - p.Bits) }

// String formats the prefix in CIDR notation.
func (p Prefix) String() string {
	return p.Addr.String() + "/" + strconv.Itoa(int(p.Bits))
}

// Compare orders prefixes by address then by length (shorter first). Returns
// -1, 0, or +1.
func (p Prefix) Compare(q Prefix) int {
	switch {
	case p.Addr < q.Addr:
		return -1
	case p.Addr > q.Addr:
		return 1
	case p.Bits < q.Bits:
		return -1
	case p.Bits > q.Bits:
		return 1
	}
	return 0
}

// OverlapRun returns the index range [lo, hi) of the prefixes that overlap
// p, among the n prefixes at(0..n-1) of a flat address plan — ascending and
// sharing no address pairwise, such as the hosted /24s of a generated
// datacenter. Being disjoint and ascending, they form one run.
func OverlapRun(n int, at func(int) Prefix, p Prefix) (lo, hi int) {
	lo = sort.Search(n, func(i int) bool { return at(i).Last() >= p.First() })
	for hi = lo; hi < n && at(hi).First() <= p.Last(); hi++ {
	}
	return lo, hi
}

// Range is an inclusive IPv4 address interval [Lo, Hi].
type Range struct {
	Lo, Hi Addr
}

// RangeOf returns the range covered by a prefix.
func RangeOf(p Prefix) Range { return Range{p.First(), p.Last()} }

// Contains reports whether a is inside the range.
func (r Range) Contains(a Addr) bool { return r.Lo <= a && a <= r.Hi }

// ContainsRange reports whether s is fully inside r.
func (r Range) ContainsRange(s Range) bool { return r.Lo <= s.Lo && s.Hi <= r.Hi }

// Overlaps reports whether the two ranges share any address.
func (r Range) Overlaps(s Range) bool { return r.Lo <= s.Hi && s.Lo <= r.Hi }

// Empty reports whether the range contains no addresses (Lo > Hi).
func (r Range) Empty() bool { return r.Lo > r.Hi }

// Size returns the number of addresses in the range (0 if empty).
func (r Range) Size() uint64 {
	if r.Empty() {
		return 0
	}
	return uint64(r.Hi) - uint64(r.Lo) + 1
}

// Intersect returns the overlap of two ranges; the result is Empty if they
// are disjoint.
func (r Range) Intersect(s Range) Range {
	lo, hi := r.Lo, r.Hi
	if s.Lo > lo {
		lo = s.Lo
	}
	if s.Hi < hi {
		hi = s.Hi
	}
	return Range{lo, hi}
}

func (r Range) String() string {
	return r.Lo.String() + "-" + r.Hi.String()
}

// Prefixes decomposes the range into the minimal list of CIDR prefixes that
// exactly cover it, in ascending address order.
func (r Range) Prefixes() []Prefix {
	if r.Empty() {
		return nil
	}
	var out []Prefix
	lo, hi := uint64(r.Lo), uint64(r.Hi)
	for lo <= hi {
		// Largest power-of-two block aligned at lo that fits in [lo,hi].
		bits := uint8(32)
		for bits > 0 {
			nb := bits - 1
			size := uint64(1) << (32 - nb)
			if lo&(size-1) != 0 || lo+size-1 > hi {
				break
			}
			bits = nb
		}
		out = append(out, Prefix{Addr(lo), bits})
		lo += uint64(1) << (32 - bits)
	}
	return out
}

// SubtractPrefixes returns r minus the union of the given prefixes, as a
// sorted list of disjoint ranges. Used to compute the address space left to
// a default route once all specific routes are removed.
func (r Range) SubtractPrefixes(ps []Prefix) []Range {
	holes := make([]Range, 0, len(ps))
	for _, p := range ps {
		h := r.Intersect(RangeOf(p))
		if !h.Empty() {
			holes = append(holes, h)
		}
	}
	sortRanges(holes)
	var out []Range
	cur := r.Lo
	done := false
	for _, h := range holes {
		if done {
			break
		}
		if h.Hi < cur {
			continue
		}
		if h.Lo > cur {
			out = append(out, Range{cur, h.Lo - 1})
		}
		if h.Hi == ^Addr(0) {
			done = true
			break
		}
		if h.Hi+1 > cur {
			cur = h.Hi + 1
		}
		if cur > r.Hi {
			done = true
		}
	}
	if !done && cur <= r.Hi {
		out = append(out, Range{cur, r.Hi})
	}
	return out
}

func sortRanges(rs []Range) {
	// Insertion sort: hole lists are short and often nearly sorted.
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Lo < rs[j-1].Lo; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}
