package bv

import (
	"fmt"
	"strconv"
	"testing"
)

// strKeyRef is the reference intern table: it keys each node by the
// strconv-built string the Ctx keyed nodes by before it hash-consed them
// by structure, and numbers new nodes in order from the first interned
// Term.
type strKeyRef struct {
	memo map[string]Term
	next Term
}

func newStrKeyRef() *strKeyRef { return &strKeyRef{memo: map[string]Term{}, next: 3} }

func strKey(n node) string {
	buf := append([]byte(nil), byte(n.kind), n.width)
	buf = strconv.AppendUint(buf, n.val, 16)
	buf = append(buf, '|')
	buf = append(buf, n.name...)
	for _, a := range n.args {
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, int64(a), 16)
	}
	return string(buf)
}

func (r *strKeyRef) intern(n node) Term {
	k := strKey(n)
	if t, ok := r.memo[k]; ok {
		return t
	}
	t := r.next
	r.memo[k] = t
	r.next++
	return t
}

// catchUp interns, in order, every node c appended since the last call;
// each must be new to the reference and get the Term c gave it, or c made
// a node the string-keyed table would have found.
func (r *strKeyRef) catchUp(t *testing.T, c *Ctx) {
	t.Helper()
	for int(r.next) < len(c.nodes) {
		want := r.next
		if got := r.intern(c.nodes[want]); got != want {
			t.Fatalf("node %d (%s) duplicates node %d", want, c.String(want), got)
		}
	}
}

// FuzzInternMatchesStringKey decodes its input into a sequence of term
// constructions over earlier results and checks that every call returns
// the Term a string-keyed intern table returns: every node the Ctx makes
// is new to the reference and numbered alike, every returned term is the
// reference's term for its node, and every returned term means what the
// construction asked for under a few fixed models. Probe steps intern an
// existing node as is or with one field changed, directly on both tables.
func FuzzInternMatchesStringKey(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23})
	f.Add([]byte("\x00\x01\x00\x02\x04\x03\x05\x07\x06\x08\x16\x10\x17\x21\x18\x22\x19\x33"))
	f.Add([]byte{2, 9, 2, 9, 1, 3, 1, 3, 12, 4, 12, 4, 20, 0, 20, 1, 21, 2, 22, 3, 23, 4})
	// x0 & x1, x1 & x0, x0 & x1: one shape, args apart.
	f.Add([]byte{1, 0, 2, 1, 1, 2, 11, 0, 0, 1, 11, 0, 1, 0, 11, 0, 0, 1})
	f.Fuzz(checkInternSequence)
}

// checkInternSequence runs one decoded construction sequence on a Ctx and
// on the reference. Bytes past the 512th are ignored.
func checkInternSequence(t *testing.T, in []byte) {
	if len(in) > 512 {
		in = in[:512]
	}
	c, ref := NewCtx(), newStrKeyRef()
	var models []Model
	for s := uint64(0); s < 4; s++ {
		m := Model{Bools: map[string]bool{}, BVs: map[string]uint64{}}
		for i := uint64(0); i < 4; i++ {
			m.Bools[fmt.Sprintf("p%d", i)] = (s>>i)&1 == 1
			m.BVs[fmt.Sprintf("x%d", i)] = (s*0x9e3779b97f4a7c15 + i*0xbf58476d1ce4e5b9) >> (i * 7)
		}
		models = append(models, m)
	}
	bools := []Term{c.True(), c.False()}
	bvs := map[int][]Term{}
	widths := []int{}
	pos := 0
	next := func() int {
		if pos >= len(in) {
			return 0
		}
		pos++
		return int(in[pos-1])
	}
	pickBool := func() Term { return bools[next()%len(bools)] }
	pickWidth := func() int { return widths[next()%len(widths)] }
	pickBV := func(w int) Term { return bvs[w][next()%len(bvs[w])] }
	// Eval walks the DAG as a tree: only terms of a bounded tree size
	// become operands, so every check stays cheap.
	sizes := map[Term]int{}
	var size func(x Term) int
	size = func(x Term) int {
		if s, ok := sizes[x]; ok {
			return s
		}
		s := 1
		for _, a := range c.nodes[x].args {
			s = min(s+size(a), 1<<20)
		}
		sizes[x] = s
		return s
	}
	addBool := func(x Term) {
		if size(x) <= 1<<10 {
			bools = append(bools, x)
		}
	}
	addBV := func(x Term) {
		if size(x) > 1<<10 {
			return
		}
		w := c.Width(x)
		if len(bvs[w]) == 0 {
			widths = append(widths, w)
		}
		bvs[w] = append(bvs[w], x)
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	ev := func(x Term, m Model) uint64 {
		if c.Width(x) == 0 {
			return b2u(c.Eval(x, m))
		}
		return c.EvalBV(x, m)
	}
	// check asserts x's node is the reference's and, under every model,
	// x evaluates as want says the construction should.
	check := func(op string, x Term, want func(m Model) uint64) {
		t.Helper()
		ref.catchUp(t, c)
		if x >= 3 {
			if got := ref.intern(c.nodes[x]); got != x {
				t.Fatalf("%s returned %d, the string key names %d", op, x, got)
			}
		}
		for _, m := range models {
			if got, w := ev(x, m), want(m); got != w {
				t.Fatalf("%s = %s evaluates to %d, want %d", op, c.String(x), got, w)
			}
		}
	}
	mask := func(w int) uint64 { return ^uint64(0) >> (64 - w) }
	for pos < len(in) {
		op := next() % 24
		if len(widths) == 0 && op >= 8 && op <= 22 {
			op = 1 // no bit-vector operand yet
		}
		switch op {
		case 0:
			name := fmt.Sprintf("p%d", next()%4)
			x := c.BoolVar(name)
			check("BoolVar", x, func(m Model) uint64 { return b2u(m.Bools[name]) })
			addBool(x)
		case 1:
			name, w := fmt.Sprintf("x%d", next()%4), []int{1, 4, 8, 16, 32, 64}[next()%6]
			x := c.BVVar(name, w)
			check("BVVar", x, func(m Model) uint64 { return m.BVs[name] & mask(w) })
			addBV(x)
		case 2, 3:
			w := []int{1, 4, 8, 16, 32, 64}[next()%6]
			v := uint64(next()) * 0x0101010101010101 >> (next() % 64)
			x := c.BVConst(v, w)
			check("BVConst", x, func(Model) uint64 { return v & mask(w) })
			addBV(x)
		case 4:
			a := pickBool()
			x := c.Not(a)
			check("Not", x, func(m Model) uint64 { return 1 ^ ev(a, m) })
			addBool(x)
		case 5, 6:
			args := make([]Term, 1+next()%4)
			for i := range args {
				args[i] = pickBool()
			}
			var x Term
			if op == 5 {
				x = c.And(args...)
			} else {
				x = c.Or(args...)
			}
			check("And/Or", x, func(m Model) uint64 {
				absorb := uint64(op - 5) // false for And, true for Or
				for _, a := range args {
					if ev(a, m) == absorb {
						return absorb
					}
				}
				return 1 - absorb
			})
			addBool(x)
		case 7:
			k, a, b := pickBool(), pickBool(), pickBool()
			x := c.Ite(k, a, b)
			check("Ite", x, func(m Model) uint64 {
				if ev(k, m) == 1 {
					return ev(a, m)
				}
				return ev(b, m)
			})
			addBool(x)
		case 8, 9, 10:
			w := pickWidth()
			a, b := pickBV(w), pickBV(w)
			var x Term
			var want func(x, y uint64) bool
			switch op {
			case 8:
				x, want = c.Eq(a, b), func(x, y uint64) bool { return x == y }
			case 9:
				x, want = c.Ule(a, b), func(x, y uint64) bool { return x <= y }
			default:
				x, want = c.Sle(a, b), func(x, y uint64) bool {
					return signExtend(x, uint8(w)) <= signExtend(y, uint8(w))
				}
			}
			check("compare", x, func(m Model) uint64 { return b2u(want(ev(a, m), ev(b, m))) })
			addBool(x)
		case 11, 12, 13, 14, 15, 16:
			w := pickWidth()
			a, b := pickBV(w), pickBV(w)
			ops := []struct {
				build func(a, b Term) Term
				eval  func(x, y uint64) uint64
			}{
				{c.BVAnd, func(x, y uint64) uint64 { return x & y }},
				{c.BVOr, func(x, y uint64) uint64 { return x | y }},
				{c.BVXor, func(x, y uint64) uint64 { return x ^ y }},
				{c.Add, func(x, y uint64) uint64 { return x + y }},
				{c.Sub, func(x, y uint64) uint64 { return x - y }},
				{c.Mul, func(x, y uint64) uint64 { return x * y }},
			}
			o := ops[op-11]
			x := o.build(a, b)
			check("arith", x, func(m Model) uint64 { return o.eval(ev(a, m), ev(b, m)) & mask(w) })
			addBV(x)
		case 17, 18:
			w := pickWidth()
			a := pickBV(w)
			var x Term
			if op == 17 {
				x = c.BVNot(a)
			} else {
				x = c.Neg(a)
			}
			check("BVNot/Neg", x, func(m Model) uint64 {
				if op == 17 {
					return ^ev(a, m) & mask(w)
				}
				return -ev(a, m) & mask(w)
			})
			addBV(x)
		case 19:
			w := pickWidth()
			a, k, left := pickBV(w), next()%(w+1), next()%2 == 0
			var x Term
			if left {
				x = c.Shl(a, k)
			} else {
				x = c.Lshr(a, k)
			}
			check("shift", x, func(m Model) uint64 {
				if left {
					return ev(a, m) << k & mask(w)
				}
				return ev(a, m) >> k
			})
			addBV(x)
		case 20:
			w := pickWidth()
			a := pickBV(w)
			lo := next() % w
			hi := lo + next()%(w-lo)
			x := c.Extract(a, hi, lo)
			check("Extract", x, func(m Model) uint64 { return ev(a, m) >> lo & mask(hi-lo+1) })
			addBV(x)
		case 21:
			wh, wl := pickWidth(), pickWidth()
			if wh+wl > 64 {
				continue
			}
			hi, lo := pickBV(wh), pickBV(wl)
			x := c.Concat(hi, lo)
			check("Concat", x, func(m Model) uint64 { return ev(hi, m)<<wl | ev(lo, m) })
			addBV(x)
		case 22:
			w := pickWidth()
			k, a, b := pickBool(), pickBV(w), pickBV(w)
			x := c.BVIte(k, a, b)
			check("BVIte", x, func(m Model) uint64 {
				if ev(k, m) == 1 {
					return ev(a, m)
				}
				return ev(b, m)
			})
			addBV(x)
		case 23:
			// Probe: an existing node, as is or with one field changed,
			// interned straight into both tables. The result stays out
			// of the operand pools: a changed node need not be well
			// sorted.
			n := c.nodes[1+next()%(len(c.nodes)-1)]
			n.args = append([]Term(nil), n.args...)
			switch next() % 6 {
			case 1:
				n.val ^= 1 << (next() % 64)
			case 2:
				n.width++
			case 3:
				n.name += "'"
			case 4:
				if len(n.args) > 1 {
					n.args[0], n.args[len(n.args)-1] = n.args[len(n.args)-1], n.args[0]
				}
			case 5:
				n.args = append(n.args, Term(1+next()%(len(c.nodes)-1)))
			}
			want := ref.intern(n)
			if got := c.intern(n); got != want {
				t.Fatalf("probe %s: intern returned %d, the string key names %d", strKey(n), got, want)
			}
		}
	}
	ref.catchUp(t, c)
	if len(ref.memo) != len(c.nodes)-3 {
		t.Fatalf("reference holds %d nodes, Ctx interned %d", len(ref.memo), len(c.nodes)-3)
	}
}

// TestInternCollisionChain puts distinct nodes on one hash chain: each is
// found again, none is returned for another, and the chain keeps its
// newest node at the head.
func TestInternCollisionChain(t *testing.T) {
	c := NewCtx()
	const h = 42
	// Neighbours differ in one field each: name, val, width, kind, arg
	// order, arity.
	ns := []node{
		{kind: kBoolVar, name: "p"},
		{kind: kBoolVar, name: "q"},
		{kind: kBVConst, width: 8, val: 7},
		{kind: kBVConst, width: 8, val: 9},
		{kind: kBVConst, width: 16, val: 9},
		{kind: kAnd, args: []Term{3, 4}},
		{kind: kOr, args: []Term{3, 4}},
		{kind: kOr, args: []Term{4, 3}},
		{kind: kOr, args: []Term{4, 3, 5}},
	}
	var ts []Term
	for _, n := range ns {
		x := c.internAt(h, n)
		for i, prev := range ts {
			if x == prev {
				t.Fatalf("node %d returned node %d's term %d", len(ts), i, prev)
			}
		}
		ts = append(ts, x)
	}
	if c.memo[h] != ts[len(ts)-1] {
		t.Fatalf("chain head %d, want the newest node %d", c.memo[h], ts[len(ts)-1])
	}
	size := len(c.nodes)
	for i, n := range ns {
		if got := c.internAt(h, n); got != ts[i] {
			t.Fatalf("node %d found as %d, want %d", i, got, ts[i])
		}
	}
	if len(c.nodes) != size {
		t.Fatalf("re-interning grew the table %d → %d", size, len(c.nodes))
	}
}
