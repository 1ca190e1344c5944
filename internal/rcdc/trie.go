package rcdc

import (
	"sync"

	"dcvalidate/internal/contracts"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/topology"
)

// walkScratch pools the candidate and coverage slices of the general
// specific-contract path. TrieChecker is a stateless value, so the pool
// is package-level; pooling replaces the per-walk slice allocations the
// benchmem gate used to flag. The report-byte-identity regression test
// pins that pooling changed no output.
type walkScratch struct {
	candidates []int
	covered    []ipnet.Prefix
}

var walkPool = sync.Pool{New: func() any { return &walkScratch{} }}

// TrieChecker is the specialized algorithm of §2.5.2: it exploits the fact
// that both contract ranges and routing rules are proper address prefixes,
// limiting each contract check to the rules whose prefix contains or is
// contained in the contract range. The paper keeps the rules in a
// hash-trie; here they are the table's sorted prefix index (the trie's
// pre-order, see ipnet.Index), and because contracts are generated in the
// same order, checking a device is a merge-join: a cursor into the index
// follows the contracts. The cursor is a hint, never a precondition —
// contracts in any order over rows in any order yield the same violations.
// It is the engine RCDC uses for the common workload, scaling validation to
// thousands of devices on modest CPU (§2.5).
//
// Specific contracts are checked with subset semantics, matching the
// outcome table of §2.4.4 (R1 keeps Prefix_B through D3 alone and is clean;
// ToR1's degraded-but-correct Prefix_C route is clean): a specific route
// must cover the contract range and must not forward to any next hop
// outside the expected set. Loss of redundancy is surfaced through the
// default contracts, which require the exact expected ECMP set. Setting
// Exact extends the exact-set requirement to specific contracts — the
// "agrees with a contract with respect to all output ports" variant of
// §2.5.1.
type TrieChecker struct {
	Exact bool
}

// CheckDevice implements Checker.
func (t TrieChecker) CheckDevice(tbl *fib.Table, dc contracts.DeviceContracts, role topology.Role) ([]Violation, error) {
	var out []Violation
	x := tbl.Index()
	cursor := 0
	for i := range dc.Contracts {
		c := &dc.Contracts[i]
		if c.Kind == contracts.Default {
			out = appendDefaultViolations(out, tbl, *c, role)
			continue
		}
		out, cursor = appendSpecificViolations(out, tbl, x, cursor, c, role, t.Exact)
	}
	return out, nil
}

// appendDefaultViolations validates a default-route contract by direct
// comparison of the default rule's next hops — the special case of §2.5.1.
func appendDefaultViolations(out []Violation, tbl *fib.Table, c contracts.Contract, role topology.Role) []Violation {
	def, ok := tbl.Default()
	if !ok {
		v := Violation{Device: c.Device, Contract: c, Kind: MissingDefault, Remaining: 0}
		classify(&v, role)
		return append(out, v)
	}
	if hopsOKSorted(c.NextHops, def.NextHops, true) || sameHops(c.NextHops, def.NextHops) {
		return out
	}
	missing, unexpected := diffHops(c.NextHops, def.NextHops)
	v := Violation{
		Device: c.Device, Contract: c, Kind: DefaultMismatch,
		RulePrefix: def.Prefix, Missing: missing, Unexpected: unexpected,
		Remaining: len(def.NextHops),
	}
	classify(&v, role)
	return append(out, v)
}

// appendSpecificViolations walks the candidate rules of §2.5.2 — every rule
// whose prefix contains or is contained in the contract range, excluding
// the default route — in descending prefix-length order, flagging rules
// whose next hops differ from the contract, until the accumulated rule
// prefixes cover the contract range. Any uncovered remainder would be
// handled by the default route and is reported as a missing specific route.
// cursor is where the previous contract's rules ended in the index, which
// is where this one's begin when contracts arrive in prefix order; the
// position after this contract's rules is returned for the next.
func appendSpecificViolations(out []Violation, tbl *fib.Table, x *ipnet.Index, cursor int, c *contracts.Contract, role topology.Role, exact bool) ([]Violation, int) {
	// The rules inside the contract range are one run of the index.
	pos, found := x.Seek(c.Prefix, cursor)
	end := x.RunEnd(c.Prefix, pos)
	// Fast path for the dominant healthy case: a rule exactly at the
	// contract prefix, no more-specific rules beneath it, next hops
	// satisfying the contract. No allocation, no search when in order.
	if found && end == pos+1 {
		_, row := x.At(pos)
		if r := &tbl.Entries[row]; len(r.NextHops) > 0 && hopsOKSorted(c.NextHops, r.NextHops, exact) {
			return out, end
		}
	}
	// Candidates: descendants first (they are longer), then ancestors from
	// longest to shortest, the order Enclosing yields them in.
	ws := walkPool.Get().(*walkScratch)
	candidates, covered := ws.candidates[:0], ws.covered[:0]
	defer func() {
		ws.candidates, ws.covered = candidates, covered
		walkPool.Put(ws)
	}()
	for i := pos; i < end; i++ {
		_, row := x.At(i)
		candidates = append(candidates, row)
	}
	// The run is lexicographic; sort by descending prefix length (stable
	// order for equal lengths doesn't matter: equal-length prefixes under
	// one range are disjoint).
	sortByPrefixLenDesc(tbl, candidates)
	for i := x.Enclosing(c.Prefix, pos); i >= 0; i = x.Enclosing(c.Prefix, i) {
		p, row := x.At(i)
		if p.IsDefault() {
			break // handled separately
		}
		candidates = append(candidates, row)
	}

	rng := ipnet.RangeOf(c.Prefix)
	for _, idx := range candidates {
		r := &tbl.Entries[idx]
		missing, unexpected := diffHops(c.NextHops, r.NextHops)
		bad := len(unexpected) > 0 || len(r.NextHops) == 0
		if exact {
			bad = bad || len(missing) > 0
		}
		if bad {
			v := Violation{
				Device: c.Device, Contract: *c, Kind: WrongNextHops,
				RulePrefix: r.Prefix, Missing: missing, Unexpected: unexpected,
				Remaining: len(r.NextHops),
			}
			classify(&v, role)
			out = append(out, v)
		}
		if r.Prefix.ContainsPrefix(c.Prefix) {
			return out, end // contract range fully covered by this rule
		}
		covered = append(covered, r.Prefix)
		if len(rng.SubtractPrefixes(covered)) == 0 {
			return out, end // fully covered by the more-specific rules
		}
	}
	// Remainder falls to the default route: missing specific route.
	def, _ := tbl.Default()
	remaining := 0
	if def != nil {
		remaining = len(def.NextHops)
	}
	v := Violation{
		Device: c.Device, Contract: *c, Kind: MissingRoute, Remaining: remaining,
	}
	classify(&v, role)
	return append(out, v), end
}

func sortByPrefixLenDesc(tbl *fib.Table, idxs []int) {
	// Insertion sort: candidate lists are tiny (usually 1).
	for i := 1; i < len(idxs); i++ {
		for j := i; j > 0 && tbl.Entries[idxs[j]].Prefix.Bits > tbl.Entries[idxs[j-1]].Prefix.Bits; j-- {
			idxs[j], idxs[j-1] = idxs[j-1], idxs[j]
		}
	}
}
