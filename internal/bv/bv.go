// Package bv implements a decision procedure for quantifier-free bit-vector
// logic — the fragment of SMT the paper discharges to Z3 (§2.5.1, §3.2).
//
// Formulas are built through a Ctx, which hash-conses terms into a DAG and
// applies structural simplifications at construction time. Satisfiability is
// decided by bit-blasting the DAG into CNF (Tseitin encoding, with
// specialized compact encodings for comparisons against constants, the
// dominant atom shape in packet-filter policies) and running the CDCL solver
// in internal/sat. Models assign concrete values to bit-vector variables
// (packet header fields) and Boolean variables (next-hop interfaces),
// yielding counterexample packets.
package bv

import (
	"fmt"
	"slices"
	"strings"

	"dcvalidate/internal/clock"
	"dcvalidate/internal/sat"
)

// Term is a handle to a hash-consed term in a Ctx. Boolean-sorted terms are
// used as formulas; bit-vector-sorted terms appear under comparisons.
type Term int32

type kind uint8

const (
	kInvalid kind = iota
	kTrue
	kFalse
	kBoolVar
	kNot
	kAnd
	kOr
	kIte // ite(cond, then, else), boolean sorted
	kEq  // bit-vector equality
	kUle // unsigned <=
	kBVVar
	kBVConst
)

type node struct {
	kind  kind
	width uint8 // bit-vector width for kBVVar/kBVConst; 0 for booleans
	val   uint64
	args  []Term
	name  string
}

// Ctx is a term context. All terms passed to a Ctx's methods must have been
// created by the same Ctx.
//
// Nodes are hash-consed by structure: memo maps a 64-bit hash of (kind,
// width, val, name, args) to the newest node with that hash, and next
// chains each node to the older node with the same hash (0 ends a chain,
// Term 0 is never interned). A lookup compares fields exactly, so a
// collision costs a comparison and never merges two distinct nodes.
type Ctx struct {
	nodes      []node
	next       []Term // parallel to nodes
	memo       map[uint64]Term
	simplified map[Term]Term // Simplify memo; rewrite results are fixpoints
}

// NewCtx returns an empty term context with True and False preallocated.
func NewCtx() *Ctx {
	c := &Ctx{memo: make(map[uint64]Term)}
	c.nodes = append(c.nodes, node{kind: kInvalid})
	c.nodes = append(c.nodes, node{kind: kTrue}, node{kind: kFalse})
	c.next = make([]Term, len(c.nodes))
	return c
}

// True and False return the boolean constants.
func (c *Ctx) True() Term  { return 1 }
func (c *Ctx) False() Term { return 2 }

func (c *Ctx) intern(n node) Term { return c.internAt(hashNode(&n), n) }

// internAt returns the node equal to n on h's chain, appending n and
// making it the chain's head when there is none.
func (c *Ctx) internAt(h uint64, n node) Term {
	head := c.memo[h]
	for t := head; t != 0; t = c.next[t] {
		if m := &c.nodes[t]; m.kind == n.kind && m.width == n.width && m.val == n.val &&
			m.name == n.name && slices.Equal(m.args, n.args) {
			return t
		}
	}
	c.nodes = append(c.nodes, n)
	c.next = append(c.next, head)
	t := Term(len(c.nodes) - 1)
	c.memo[h] = t
	return t
}

// hashNode is FNV-1a over the node's fields, one 64-bit word at a time
// (one per name byte).
func hashNode(n *node) uint64 {
	const prime = 1099511628211
	h := (14695981039346656037 ^ (uint64(n.kind) | uint64(n.width)<<8)) * prime
	h = (h ^ n.val) * prime
	for i := 0; i < len(n.name); i++ {
		h = (h ^ uint64(n.name[i])) * prime
	}
	for _, a := range n.args {
		h = (h ^ uint64(a)) * prime
	}
	return h
}

func (c *Ctx) n(t Term) *node { return &c.nodes[t] }

// Width returns the bit-vector width of t, or 0 if boolean sorted.
func (c *Ctx) Width(t Term) int { return int(c.n(t).width) }

// BoolVar returns the boolean variable with the given name, creating it on
// first use.
func (c *Ctx) BoolVar(name string) Term {
	return c.intern(node{kind: kBoolVar, name: name})
}

// BVVar returns the bit-vector variable with the given name and width,
// creating it on first use. Width must be 1..64.
func (c *Ctx) BVVar(name string, width int) Term {
	if width < 1 || width > 64 {
		panic("bv: width out of range") // invariant: constructor precondition — ParseSMTLIB2 and all in-tree encoders validate sorts and ranges first
	}
	return c.intern(node{kind: kBVVar, width: uint8(width), name: name})
}

// BVConst returns the width-bit constant val (truncated to width bits).
func (c *Ctx) BVConst(val uint64, width int) Term {
	if width < 1 || width > 64 {
		panic("bv: width out of range") // invariant: constructor precondition — ParseSMTLIB2 and all in-tree encoders validate sorts and ranges first
	}
	if width < 64 {
		val &= (1 << width) - 1
	}
	return c.intern(node{kind: kBVConst, width: uint8(width), val: val})
}

// Not returns the negation of boolean term t.
func (c *Ctx) Not(t Term) Term {
	switch c.n(t).kind {
	case kTrue:
		return c.False()
	case kFalse:
		return c.True()
	case kNot:
		return c.n(t).args[0]
	}
	return c.intern(node{kind: kNot, args: []Term{t}})
}

// And returns the conjunction of the given boolean terms, flattening nested
// conjunctions and folding constants.
func (c *Ctx) And(ts ...Term) Term {
	out := make([]Term, 0, len(ts))
	seen := make(map[Term]bool)
	for _, t := range ts {
		switch c.n(t).kind {
		case kTrue:
			continue
		case kFalse:
			return c.False()
		case kAnd:
			for _, a := range c.n(t).args {
				if seen[c.Not(a)] {
					return c.False()
				}
				if !seen[a] {
					seen[a] = true
					out = append(out, a)
				}
			}
			continue
		}
		if seen[c.Not(t)] {
			return c.False()
		}
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	switch len(out) {
	case 0:
		return c.True()
	case 1:
		return out[0]
	}
	return c.intern(node{kind: kAnd, args: out})
}

// Or returns the disjunction of the given boolean terms.
func (c *Ctx) Or(ts ...Term) Term {
	out := make([]Term, 0, len(ts))
	seen := make(map[Term]bool)
	for _, t := range ts {
		switch c.n(t).kind {
		case kFalse:
			continue
		case kTrue:
			return c.True()
		case kOr:
			for _, a := range c.n(t).args {
				if seen[c.Not(a)] {
					return c.True()
				}
				if !seen[a] {
					seen[a] = true
					out = append(out, a)
				}
			}
			continue
		}
		if seen[c.Not(t)] {
			return c.True()
		}
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	switch len(out) {
	case 0:
		return c.False()
	case 1:
		return out[0]
	}
	return c.intern(node{kind: kOr, args: out})
}

// Implies returns a → b.
func (c *Ctx) Implies(a, b Term) Term { return c.Or(c.Not(a), b) }

// Iff returns a ↔ b.
func (c *Ctx) Iff(a, b Term) Term {
	if a == b {
		return c.True()
	}
	return c.And(c.Implies(a, b), c.Implies(b, a))
}

// Ite returns if cond then a else b (all boolean sorted).
func (c *Ctx) Ite(cond, a, b Term) Term {
	switch c.n(cond).kind {
	case kTrue:
		return a
	case kFalse:
		return b
	}
	if a == b {
		return a
	}
	return c.intern(node{kind: kIte, args: []Term{cond, a, b}})
}

func (c *Ctx) checkBVPair(a, b Term, op string) {
	na, nb := c.n(a), c.n(b)
	if na.width == 0 || nb.width == 0 || na.width != nb.width {
		panic(fmt.Sprintf("bv: %s of mismatched sorts (widths %d, %d)", op, na.width, nb.width)) // invariant: constructor precondition — ParseSMTLIB2 and all in-tree encoders validate sorts and ranges first
	}
}

// Eq returns the bit-vector equality a = b.
func (c *Ctx) Eq(a, b Term) Term {
	c.checkBVPair(a, b, "Eq")
	if a == b {
		return c.True()
	}
	na, nb := c.n(a), c.n(b)
	if na.kind == kBVConst && nb.kind == kBVConst {
		if na.val == nb.val {
			return c.True()
		}
		return c.False()
	}
	if na.kind == kBVConst { // normalize: constant on the right
		a, b = b, a
	}
	return c.intern(node{kind: kEq, args: []Term{a, b}})
}

// Ule returns the unsigned comparison a ≤ b.
func (c *Ctx) Ule(a, b Term) Term {
	c.checkBVPair(a, b, "Ule")
	if a == b {
		return c.True()
	}
	na, nb := c.n(a), c.n(b)
	if na.kind == kBVConst && nb.kind == kBVConst {
		if na.val <= nb.val {
			return c.True()
		}
		return c.False()
	}
	if na.kind == kBVConst && na.val == 0 {
		return c.True() // 0 <= b
	}
	if nb.kind == kBVConst && nb.val == c.maxVal(b) {
		return c.True() // a <= max
	}
	return c.intern(node{kind: kUle, args: []Term{a, b}})
}

func (c *Ctx) maxVal(t Term) uint64 {
	w := c.n(t).width
	if w == 64 {
		return ^uint64(0)
	}
	return (1 << w) - 1
}

// Ult returns a < b (unsigned).
func (c *Ctx) Ult(a, b Term) Term { return c.Not(c.Ule(b, a)) }

// Uge returns a ≥ b (unsigned).
func (c *Ctx) Uge(a, b Term) Term { return c.Ule(b, a) }

// Ugt returns a > b (unsigned).
func (c *Ctx) Ugt(a, b Term) Term { return c.Not(c.Ule(a, b)) }

// InRange returns lo ≤ t ≤ hi for a bit-vector term t and constant bounds.
// This is the predicate shape of equations (1) and r_3/r_13 in the paper.
func (c *Ctx) InRange(t Term, lo, hi uint64) Term {
	w := c.Width(t)
	if w == 0 {
		panic("bv: InRange of boolean term") // invariant: constructor precondition — ParseSMTLIB2 and all in-tree encoders validate sorts and ranges first
	}
	return c.And(c.Ule(c.BVConst(lo, w), t), c.Ule(t, c.BVConst(hi, w)))
}

// String renders the term for diagnostics.
func (c *Ctx) String(t Term) string {
	n := c.n(t)
	switch n.kind {
	case kTrue:
		return "true"
	case kFalse:
		return "false"
	case kBoolVar, kBVVar:
		return n.name
	case kBVConst:
		return fmt.Sprintf("%d", n.val)
	case kNot:
		return "(not " + c.String(n.args[0]) + ")"
	case kBVExtract:
		return fmt.Sprintf("((_ extract %d %d) %s)", n.val>>8, n.val&0xff, c.String(n.args[0]))
	case kBVShl, kBVLshr:
		op := "bvshl"
		if n.kind == kBVLshr {
			op = "bvlshr"
		}
		return fmt.Sprintf("(%s %s %d)", op, c.String(n.args[0]), n.val)
	}
	op, ok := map[kind]string{
		kAnd: "and", kOr: "or", kIte: "ite", kEq: "=", kUle: "bvule",
		kSle: "bvsle", kBVNot: "bvnot", kBVAnd: "bvand", kBVOr: "bvor",
		kBVXor: "bvxor", kBVAdd: "bvadd", kBVSub: "bvsub", kBVMul: "bvmul",
		kBVNeg: "bvneg", kBVConcat: "concat", kBVIte: "ite",
	}[n.kind]
	if !ok {
		return "?"
	}
	parts := make([]string, len(n.args))
	for i, a := range n.args {
		parts[i] = c.String(a)
	}
	return "(" + op + " " + strings.Join(parts, " ") + ")"
}

// Model maps variable names to values after a satisfiable query.
type Model struct {
	Bools map[string]bool
	BVs   map[string]uint64
}

// Result is the outcome of a Solve call.
type Result struct {
	Sat   bool
	Model Model // valid only if Sat
	Stats sat.Stats
}

// Solver bit-blasts formulas from one Ctx into an internal/sat instance.
// Terms are encoded incrementally and shared across queries; use Solve for
// a one-shot assertion or SolveAssuming for repeated retractable queries
// against shared structure.
type Solver struct {
	ctx  *Ctx
	sat  *sat.Solver
	tlit sat.Lit // literal that is constrained true

	boolVars map[Term]sat.Lit
	bvBits   map[Term][]sat.Lit // lsb first
	blasted  map[Term]sat.Lit   // memoized boolean encodings

	// Metrics, when non-nil, receives per-query search-work deltas and
	// solve latencies. Clock times those latencies (nil = system clock);
	// neither is read unless Metrics is set, so uninstrumented solves
	// never touch a time source.
	Metrics *Metrics
	Clock   clock.Clock

	// DisableSimplify skips the pre-blast rewrite pass (Ctx.Simplify) on
	// asserted and assumed formulas — the ablation knob the equivalence
	// property tests and the BenchmarkBlast* benches flip.
	DisableSimplify bool

	// Last SolveAssuming call's assumption terms and their literals, for
	// mapping FailedAssumptions back to terms.
	lastAssumpTerms []Term
	lastAssumpLits  []sat.Lit
}

// NewSolver returns a solver for formulas of ctx.
func NewSolver(ctx *Ctx) *Solver {
	s := &Solver{
		ctx:      ctx,
		sat:      sat.New(1),
		boolVars: make(map[Term]sat.Lit),
		bvBits:   make(map[Term][]sat.Lit),
		blasted:  make(map[Term]sat.Lit),
	}
	s.tlit = sat.NewLit(1, false)
	s.sat.AddClause(s.tlit)
	return s
}

func (s *Solver) freshLit() sat.Lit { return sat.NewLit(s.sat.AddVar(), false) }

// litFor returns the SAT literal encoding boolean term t, emitting Tseitin
// clauses as needed.
func (s *Solver) litFor(t Term) sat.Lit {
	if l, ok := s.blasted[t]; ok {
		return l
	}
	n := s.ctx.n(t)
	var l sat.Lit
	switch n.kind {
	case kTrue:
		l = s.tlit
	case kFalse:
		l = s.tlit.Not()
	case kBoolVar:
		l = s.freshLit()
		s.boolVars[t] = l
	case kNot:
		l = s.litFor(n.args[0]).Not()
	case kAnd:
		lits := make([]sat.Lit, len(n.args))
		for i, a := range n.args {
			lits[i] = s.litFor(a)
		}
		l = s.defineAnd(lits)
	case kOr:
		lits := make([]sat.Lit, len(n.args))
		for i, a := range n.args {
			lits[i] = s.litFor(a).Not()
		}
		l = s.defineAnd(lits).Not()
	case kIte:
		cl := s.litFor(n.args[0])
		tl := s.litFor(n.args[1])
		el := s.litFor(n.args[2])
		l = s.freshLit()
		// l ↔ ite(c,t,e)
		s.sat.AddClause(cl.Not(), tl.Not(), l)
		s.sat.AddClause(cl.Not(), tl, l.Not())
		s.sat.AddClause(cl, el.Not(), l)
		s.sat.AddClause(cl, el, l.Not())
	case kEq:
		l = s.blastEq(n.args[0], n.args[1])
	case kUle:
		l = s.blastUle(n.args[0], n.args[1])
	case kSle:
		// a ≤s b ⟺ (a ⊕ signbit) ≤u (b ⊕ signbit): flip each operand's
		// msb and compare unsigned.
		ab := append([]sat.Lit(nil), s.bits(n.args[0])...)
		bb := append([]sat.Lit(nil), s.bits(n.args[1])...)
		ab[len(ab)-1] = ab[len(ab)-1].Not()
		bb[len(bb)-1] = bb[len(bb)-1].Not()
		l = s.uleBits(ab, bb)
	default:
		panic("bv: litFor of non-boolean term") // invariant: constructor precondition — ParseSMTLIB2 and all in-tree encoders validate sorts and ranges first
	}
	s.blasted[t] = l
	return l
}

// defineAnd returns a literal g with g ↔ AND(lits).
func (s *Solver) defineAnd(lits []sat.Lit) sat.Lit {
	switch len(lits) {
	case 0:
		return s.tlit
	case 1:
		return lits[0]
	}
	g := s.freshLit()
	long := make([]sat.Lit, 0, len(lits)+1)
	for _, l := range lits {
		s.sat.AddClause(g.Not(), l) // g → l
		long = append(long, l.Not())
	}
	long = append(long, g)
	s.sat.AddClause(long...) // (∧ lits) → g
	return g
}

// bits returns the SAT literals of a bit-vector term, lsb first. Constant
// bits are the true/false literal.
func (s *Solver) bits(t Term) []sat.Lit {
	if b, ok := s.bvBits[t]; ok {
		return b
	}
	n := s.ctx.n(t)
	var out []sat.Lit
	switch n.kind {
	case kBVVar:
		out = make([]sat.Lit, n.width)
		for i := range out {
			out[i] = s.freshLit()
		}
	case kBVConst:
		out = make([]sat.Lit, n.width)
		for i := range out {
			if n.val>>i&1 == 1 {
				out[i] = s.tlit
			} else {
				out[i] = s.tlit.Not()
			}
		}
	default:
		if n.width == 0 {
			panic("bv: bits of non-bit-vector term") // invariant: constructor precondition — ParseSMTLIB2 and all in-tree encoders validate sorts and ranges first
		}
		out = s.blastBV(t)
	}
	s.bvBits[t] = out
	return out
}

func (s *Solver) isConst(t Term) (uint64, bool) {
	n := s.ctx.n(t)
	if n.kind == kBVConst {
		return n.val, true
	}
	return 0, false
}

// blastEq encodes a = b. When b is constant the encoding needs one aux
// variable and width+1 clauses.
func (s *Solver) blastEq(a, b Term) sat.Lit {
	ab := s.bits(a)
	if cv, ok := s.isConst(b); ok {
		g := s.freshLit()
		long := make([]sat.Lit, 0, len(ab)+1)
		for i, bit := range ab {
			want := bit
			if cv>>i&1 == 0 {
				want = bit.Not()
			}
			s.sat.AddClause(g.Not(), want) // g → bit matches
			long = append(long, want.Not())
		}
		long = append(long, g)
		s.sat.AddClause(long...) // all bits match → g
		return g
	}
	bb := s.bits(b)
	eqs := make([]sat.Lit, len(ab))
	for i := range ab {
		e := s.freshLit()
		x, y := ab[i], bb[i]
		s.sat.AddClause(e.Not(), x.Not(), y)
		s.sat.AddClause(e.Not(), x, y.Not())
		s.sat.AddClause(e, x.Not(), y.Not())
		s.sat.AddClause(e, x, y)
		eqs[i] = e
	}
	return s.defineAnd(eqs)
}

// blastUle encodes a ≤ b (unsigned). Constant operands get the compact
// chain encoding with constant propagation; for a CIDR range bound this
// collapses to a handful of clauses per prefix bit.
func (s *Solver) blastUle(a, b Term) sat.Lit {
	if cv, ok := s.isConst(b); ok {
		return s.blastCmpConst(s.bits(a), cv, true)
	}
	if cv, ok := s.isConst(a); ok {
		return s.blastCmpConst(s.bits(b), cv, false)
	}
	// General case: lexicographic chain over the bit slices.
	return s.uleBits(s.bits(a), s.bits(b))
}

// blastCmpConst encodes x ≤ c (le=true) or x ≥ c (le=false) walking from
// lsb to msb with constant propagation.
func (s *Solver) blastCmpConst(xb []sat.Lit, c uint64, le bool) sat.Lit {
	// g over the empty suffix: equality holds, so both ≤ and ≥ are true.
	g := s.tlit
	gConst, gVal := true, true
	for i := 0; i < len(xb); i++ {
		x := xb[i]
		cb := c>>i&1 == 1
		var ng sat.Lit
		var ngConst, ngVal bool
		if le {
			if cb {
				// x_i=0 → true; x_i=1 → g.
				if gConst && gVal {
					ngConst, ngVal = true, true
				} else if gConst && !gVal {
					ng = x.Not()
				} else {
					ng = s.defineAnd([]sat.Lit{x, g.Not()}).Not() // ¬x ∨ g
				}
			} else {
				// x_i=1 → false; x_i=0 → g.
				if gConst && !gVal {
					ngConst, ngVal = true, false
				} else if gConst && gVal {
					ng = x.Not()
				} else {
					ng = s.defineAnd([]sat.Lit{x.Not(), g})
				}
			}
		} else {
			if !cb {
				// c_i=0: x_i=1 → true; x_i=0 → g.
				if gConst && gVal {
					ngConst, ngVal = true, true
				} else if gConst && !gVal {
					ng = x
				} else {
					ng = s.defineAnd([]sat.Lit{x.Not(), g.Not()}).Not() // x ∨ g
				}
			} else {
				// c_i=1: x_i=0 → false; x_i=1 → g.
				if gConst && !gVal {
					ngConst, ngVal = true, false
				} else if gConst && gVal {
					ng = x
				} else {
					ng = s.defineAnd([]sat.Lit{x, g})
				}
			}
		}
		g, gConst, gVal = ng, ngConst, ngVal
		if gConst {
			if gVal {
				g = s.tlit
			} else {
				g = s.tlit.Not()
			}
			gConst = true
		}
	}
	return g
}

// prep runs the pre-blast simplification pass unless disabled. The
// rewritten term is equivalent over the original variables, so results
// and extracted models are unchanged; only the CNF gets smaller.
func (s *Solver) prep(f Term) Term {
	if s.DisableSimplify {
		return f
	}
	return s.ctx.Simplify(f)
}

// Solve asserts the boolean term f permanently and decides satisfiability,
// returning a model over all variables appearing in f when satisfiable.
func (s *Solver) Solve(f Term) (Result, error) {
	finish := s.startQuery()
	root := s.litFor(s.prep(f))
	s.sat.AddClause(root)
	ok, err := s.sat.Solve()
	finish()
	if err != nil {
		return Result{}, err
	}
	return s.result(ok), nil
}

// startQuery snapshots search statistics (and, only when instrumented,
// the clock) before a query; the returned func records the query.
func (s *Solver) startQuery() func() {
	if s.Metrics == nil {
		return func() {}
	}
	prev := s.sat.Stats()
	start := clock.Or(s.Clock).Now()
	return func() {
		s.Metrics.observeSolve(prev, s.sat.Stats(), clock.Since(s.Clock, start))
	}
}

// SolveAssuming decides satisfiability under the conjunction of the given
// terms as retractable assumptions. The solver stays reusable afterwards:
// expensive shared structure (a large policy encoding) is bit-blasted once
// and many queries are discharged against it — the pattern SecGuru uses to
// check a contract suite against one ACL.
func (s *Solver) SolveAssuming(assumptions ...Term) (Result, error) {
	finish := s.startQuery()
	lits := make([]sat.Lit, len(assumptions))
	for i, f := range assumptions {
		lits[i] = s.litFor(s.prep(f))
	}
	s.lastAssumpTerms = append(s.lastAssumpTerms[:0], assumptions...)
	s.lastAssumpLits = append(s.lastAssumpLits[:0], lits...)
	ok, err := s.sat.SolveAssuming(lits)
	finish()
	if err != nil {
		return Result{}, err
	}
	return s.result(ok), nil
}

// FailedAssumptions returns the subset of the last SolveAssuming call's
// assumption terms whose conjunction already makes the query unsatisfiable
// (the SAT core's assumption failure analysis mapped back to terms). Empty
// when the last query was satisfiable or unsat independent of assumptions.
// Callers use it to prune later queries: an assumption set disjoint from
// the failed core cannot be the reason a query became unsat.
func (s *Solver) FailedAssumptions() []Term {
	var out []Term
	for _, l := range s.sat.FailedAssumptions() {
		for i, al := range s.lastAssumpLits {
			if al == l {
				out = append(out, s.lastAssumpTerms[i])
				break
			}
		}
	}
	return out
}

func (s *Solver) result(ok bool) Result {
	res := Result{Sat: ok, Stats: s.sat.Stats()}
	if !ok {
		return res
	}
	res.Model = Model{Bools: make(map[string]bool), BVs: make(map[string]uint64)}
	for t, l := range s.boolVars {
		v := s.sat.Value(l.Var())
		if l.Neg() {
			v = !v
		}
		res.Model.Bools[s.ctx.n(t).name] = v
	}
	for t, bits := range s.bvBits {
		n := s.ctx.n(t)
		if n.kind != kBVVar {
			continue
		}
		var val uint64
		for i, bl := range bits {
			bitv := s.sat.Value(bl.Var())
			if bl.Neg() {
				bitv = !bitv
			}
			if bitv {
				val |= 1 << i
			}
		}
		res.Model.BVs[n.name] = val
	}
	return res
}

// Solve is a convenience one-shot: decide satisfiability of f in ctx.
func Solve(ctx *Ctx, f Term) (Result, error) {
	return NewSolver(ctx).Solve(f)
}

// Valid reports whether f is valid (its negation is unsatisfiable). On
// invalidity the returned model is a counterexample.
func Valid(ctx *Ctx, f Term) (bool, Model, error) {
	res, err := Solve(ctx, ctx.Not(f))
	if err != nil {
		return false, Model{}, err
	}
	return !res.Sat, res.Model, nil
}
