package rcdc

import (
	"fmt"
	"runtime"
	"sync"

	"dcvalidate/internal/bv"
	"dcvalidate/internal/clock"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/topology"
)

// SMTChecker is the bit-vector-logic verification engine of §2.5.1. The
// routing policy is encoded per Definition 2.1 as a nested if-then-else
// over prefix-range predicates, with one Boolean variable per next-hop
// interface; a contract check is a satisfiability query discharged to the
// internal/bv + internal/sat pipeline (the Z3 substitute).
//
// It is the default, fully general engine ("flexible query language,
// performance within a second per routing table"); TrieChecker is the
// specialized fast path for the common workload.
//
// A specific contract discharges the paper's primary query
//
//	C.range(x) ∧ P ∧ ¬C.nexthops
//
// (satisfiable ⇒ some covered address forwards outside the expected set)
// plus a coverage query asserting some specific rule matches every address
// in the range (unsatisfied ⇒ MissingRoute: packets fall to the default
// route, the §2.4.4 failure shape). With Exact set, the single query
// variant C.range(x) ∧ ¬(P ⇔ C.nexthops) of §2.5.1 is used instead, which
// additionally requires every expected redundant hop.
type SMTChecker struct {
	Exact bool
	// Workers bounds the per-device contract fan-out. Contracts are
	// embarrassingly parallel once each worker owns its own bv.Ctx and
	// solver (solver state is the only shared-nothing requirement), so
	// CheckDevice splits the contract list into contiguous chunks, one
	// fresh policy encoding per worker, and merges results back in
	// contract order — the violation stream is identical to the
	// sequential path up to counterexample witness choice, which the
	// trie-vs-SMT differential oracle is insensitive to. Semantics
	// mirror Validator.Workers: 0 means GOMAXPROCS, 1 pins sequential.
	// This is the one fan-out not on par.For, on purpose: a witness
	// depends on which contracts share a solver session, so chunks
	// claimed dynamically would make witnesses depend on scheduling; the
	// contiguous per-worker split fixes each session's contracts.
	Workers int
	// Metrics, when non-nil, instruments every solver this checker
	// creates (per-query conflicts/decisions/propagations and solve
	// latency); Clock times those solves (nil = system clock). The
	// bundle is atomic-add based, so one bundle may serve all workers.
	Metrics *bv.Metrics
	Clock   clock.Clock
}

func hopVar(c *bv.Ctx, d topology.DeviceID) bv.Term {
	return c.BoolVar(fmt.Sprintf("nh%d", d))
}

// encodePolicy builds the Definition 2.1 meaning of the non-default part of
// the policy: rules sorted by descending prefix length folded into an ITE
// chain, evaluating to the matched rule's next-hop disjunction, or drop
// (false) when no specific rule matches. It also returns the coverage
// predicate (some specific rule matches). The default route is excluded: it
// is validated by the default contract's special case, and specific
// contracts require a specific route (§2.4, §2.6.2 Migrations).
func encodePolicy(c *bv.Ctx, dst bv.Term, tbl *fib.Table) (policy, covered bv.Term) {
	// Collect non-default entries in descending prefix-length order.
	byLen := make([][]int, 33)
	for i := range tbl.Entries {
		p := tbl.Entries[i].Prefix
		if p.IsDefault() {
			continue
		}
		byLen[p.Bits] = append(byLen[p.Bits], i)
	}
	formula := c.False() // P_n = drop
	var conds []bv.Term
	// Build the ITE chain inside-out: the longest prefix must be the
	// outermost (first-checked) condition, so wrap from shortest upward.
	for bits := 0; bits <= 32; bits++ {
		for _, idx := range byLen[bits] {
			e := &tbl.Entries[idx]
			rng := ipnet.RangeOf(e.Prefix)
			cond := c.InRange(dst, uint64(rng.Lo), uint64(rng.Hi))
			conds = append(conds, cond)
			var hops bv.Term
			if e.Connected {
				hops = c.BoolVar("local")
			} else {
				terms := make([]bv.Term, len(e.NextHops))
				for i, nh := range e.NextHops {
					terms[i] = hopVar(c, nh)
				}
				hops = c.Or(terms...)
			}
			formula = c.Ite(cond, hops, formula)
		}
	}
	return formula, c.Or(conds...)
}

// smtSession is one worker's view of a device check: a private term
// context, solver, and policy encoding, plus the per-device coverage
// fact learned from assumption failure analysis. Sessions are never
// shared between goroutines.
type smtSession struct {
	checker SMTChecker
	tbl     *fib.Table
	role    topology.Role

	c          *bv.Ctx
	solver     *bv.Solver
	dst        bv.Term
	policy     bv.Term
	notCovered bv.Term

	// coverageComplete is set once FailedAssumptions proves ¬covered is
	// unsatisfiable against the policy encoding alone (independent of
	// any contract's range assumption): every address matches a
	// specific rule, so all later coverage queries are skipped.
	coverageComplete bool
}

func (s SMTChecker) newSession(tbl *fib.Table, role topology.Role) *smtSession {
	c := bv.NewCtx()
	dst := c.BVVar("dstIp", 32)
	policy, covered := encodePolicy(c, dst, tbl)
	solver := bv.NewSolver(c)
	solver.Metrics = s.Metrics
	solver.Clock = s.Clock
	return &smtSession{
		checker: s, tbl: tbl, role: role,
		c: c, solver: solver, dst: dst,
		policy: policy, notCovered: c.Not(covered),
	}
}

func (ss *smtSession) check(ct contracts.Contract) ([]Violation, error) {
	if ct.Kind == contracts.Default {
		// §2.5.1: the default contract is the special case
		// r_default.nexthops = C_default.nexthops.
		return appendDefaultViolations(nil, ss.tbl, ss.tbl.Index(), ct, ss.role), nil
	}
	return ss.checkSpecific(ct)
}

// CheckDevice implements Checker. Each worker bit-blasts the device's
// policy once and discharges its share of the contracts as assumption
// queries against that shared encoding; violations are merged back in
// contract order.
func (s SMTChecker) CheckDevice(tbl *fib.Table, dc contracts.DeviceContracts, role topology.Role) ([]Violation, error) {
	cts := dc.Contracts
	workers := s.Workers
	if workers <= 0 {
		// Auto mode: each worker pays for a full policy encoding, so fan
		// out only when every worker has enough contracts to amortize
		// that rebuild. An explicit Workers count is honored as-is,
		// mirroring Validator.Workers.
		workers = runtime.GOMAXPROCS(0)
		if len(cts) < 8*workers {
			workers = len(cts) / 8
		}
	}
	if workers > len(cts) {
		workers = len(cts)
	}
	if workers <= 1 {
		ss := s.newSession(tbl, role)
		var out []Violation
		for _, ct := range cts {
			v, err := ss.check(ct)
			if err != nil {
				return nil, err
			}
			out = append(out, v...)
		}
		return out, nil
	}

	perContract := make([][]Violation, len(cts))
	errs := make([]error, workers)
	chunk := (len(cts) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(cts) {
			hi = len(cts)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			ss := s.newSession(tbl, role)
			for i := lo; i < hi; i++ {
				v, err := ss.check(cts[i])
				if err != nil {
					errs[w] = err
					return
				}
				perContract[i] = v
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var out []Violation
	for _, v := range perContract {
		out = append(out, v...)
	}
	return out, nil
}

func (ss *smtSession) checkSpecific(ct contracts.Contract) ([]Violation, error) {
	c, tbl := ss.c, ss.tbl
	expected := make([]bv.Term, len(ct.NextHops))
	for i, nh := range ct.NextHops {
		expected[i] = hopVar(c, nh)
	}
	want := c.Or(expected...)

	rng := ipnet.RangeOf(ct.Prefix)
	inRange := c.InRange(ss.dst, uint64(rng.Lo), uint64(rng.Hi))

	var query bv.Term
	if ss.checker.Exact {
		query = c.And(inRange, c.Not(c.Iff(ss.policy, want)))
	} else {
		// Coverage first: an address in range matched by no specific rule
		// is a MissingRoute violation regardless of next-hop assignments.
		// The range predicate and ¬covered ride as separate assumptions
		// so failure analysis can tell which of them the refutation
		// actually needs.
		if !ss.coverageComplete {
			res, err := ss.solver.SolveAssuming(inRange, ss.notCovered)
			if err != nil {
				return nil, fmt.Errorf("rcdc: smt coverage %v: %w", ct.Prefix, err)
			}
			if res.Sat {
				def, _ := tbl.Default()
				remaining := 0
				if def != nil {
					remaining = len(def.NextHops)
				}
				v := Violation{Device: ct.Device, Contract: ct, Kind: MissingRoute, Remaining: remaining}
				classify(&v, ss.role)
				return []Violation{v}, nil
			}
			// Unsat with inRange outside the failed core means ¬covered
			// contradicts the policy encoding for every address, not just
			// this contract's range — no later coverage query can succeed.
			complete := true
			for _, f := range ss.solver.FailedAssumptions() {
				if f == inRange {
					complete = false
					break
				}
			}
			ss.coverageComplete = complete
		}
		query = c.And(inRange, ss.policy, c.Not(want))
	}
	res, err := ss.solver.SolveAssuming(query)
	if err != nil {
		return nil, fmt.Errorf("rcdc: smt check %v: %w", ct.Prefix, err)
	}
	if !res.Sat {
		return nil, nil
	}
	// Counterexample: locate the rule the witness address selects and
	// report the concrete ECMP-set difference.
	addr := ipnet.Addr(res.Model.BVs["dstIp"])
	e, ok := lookupSpecific(tbl, addr)
	if !ok {
		def, _ := tbl.Default()
		remaining := 0
		if def != nil {
			remaining = len(def.NextHops)
		}
		v := Violation{Device: ct.Device, Contract: ct, Kind: MissingRoute, Remaining: remaining}
		classify(&v, ss.role)
		return []Violation{v}, nil
	}
	missing, unexpected := diffHops(ct.NextHops, e.NextHops)
	v := Violation{
		Device: ct.Device, Contract: ct, Kind: WrongNextHops,
		RulePrefix: e.Prefix, Missing: missing, Unexpected: unexpected,
		Remaining: len(e.NextHops),
	}
	classify(&v, ss.role)
	return []Violation{v}, nil
}

// lookupSpecific is LPM restricted to non-default rules.
func lookupSpecific(tbl *fib.Table, a ipnet.Addr) (*fib.Entry, bool) {
	e, ok := tbl.Lookup(a)
	if !ok || e.Prefix.IsDefault() {
		return nil, false
	}
	return e, true
}
