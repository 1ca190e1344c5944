// Package rcdc implements the Reality Checker for Data Centers: the
// verification engine of §2.5, the local-validation runner of §2.4, the
// severity model of §2.6.4, and the global all-pairs reachability checker
// used both as the scalability baseline (§1) and to validate Claim 1
// (local contracts imply global reachability).
package rcdc

import (
	"fmt"
	"sort"
	"strings"

	"dcvalidate/internal/contracts"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/topology"
)

// ViolationKind classifies how a contract failed.
type ViolationKind uint8

const (
	// MissingRoute: no specific route covers (part of) the contract range;
	// packets fall through to the default route (§2.4.4).
	MissingRoute ViolationKind = iota
	// WrongNextHops: a covering route exists but its ECMP set differs from
	// the contract's expected set.
	WrongNextHops
	// DefaultMismatch: the default route's next hops differ from the
	// default contract (including too few hops — the §2.6.2 RIB-FIB bug).
	DefaultMismatch
	// MissingDefault: the device has no default route at all.
	MissingDefault
)

func (k ViolationKind) String() string {
	switch k {
	case MissingRoute:
		return "missing-route"
	case WrongNextHops:
		return "wrong-next-hops"
	case DefaultMismatch:
		return "default-mismatch"
	case MissingDefault:
		return "missing-default"
	}
	return "unknown"
}

// Severity is the remediation priority of a violation (§2.6.4).
type Severity uint8

const (
	LowRisk Severity = iota
	HighRisk
)

func (s Severity) String() string {
	if s == HighRisk {
		return "high"
	}
	return "low"
}

// Violation is one failed contract check on one device.
type Violation struct {
	Device   topology.DeviceID
	Contract contracts.Contract
	Kind     ViolationKind
	Severity Severity

	// RulePrefix is the offending routing rule, when one exists.
	RulePrefix ipnet.Prefix
	// Missing are expected next hops the rule lacks; Unexpected are next
	// hops the rule has beyond the contract.
	Missing, Unexpected []topology.DeviceID
	// Remaining is the number of next hops actually in use; a value <= 1
	// on a default route means one more failure isolates the device.
	Remaining int
}

// Clone returns a deep copy of the violation: the Missing/Unexpected
// sets and the contract's NextHops get fresh backing arrays, so mutating
// the copy cannot corrupt a cached report or the shared contract sets a
// memoizing generator hands out.
func (v Violation) Clone() Violation {
	cp := v
	cp.Contract.NextHops = append([]topology.DeviceID(nil), v.Contract.NextHops...)
	cp.Missing = append([]topology.DeviceID(nil), v.Missing...)
	cp.Unexpected = append([]topology.DeviceID(nil), v.Unexpected...)
	return cp
}

func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dev=%d %s contract=%s kind=%s sev=%s",
		v.Device, v.Contract.Kind, v.Contract.Prefix, v.Kind, v.Severity)
	if len(v.Missing) > 0 {
		fmt.Fprintf(&b, " missing=%v", v.Missing)
	}
	if len(v.Unexpected) > 0 {
		fmt.Fprintf(&b, " unexpected=%v", v.Unexpected)
	}
	return b.String()
}

// classify assigns the §2.6.4 risk level: errors that leave a device one
// additional fault from isolation, and errors on high-blast-radius devices
// (spine and regional tiers, which many servers depend on for the longer
// detour paths), are high risk.
func classify(v *Violation, role topology.Role) {
	switch {
	case v.Contract.Kind == contracts.Default && v.Remaining <= 1:
		v.Severity = HighRisk
	case role == topology.RoleSpine || role == topology.RoleRegionalSpine:
		v.Severity = HighRisk
	default:
		v.Severity = LowRisk
	}
}

// DiffHops is the exported form of diffHops for sibling engines (the
// packet-equivalence-class checker in internal/pec) that must emit
// violations field-identical to the trie engine: same missing/unexpected
// content, order, and nil-vs-empty shape.
func DiffHops(expected, actual []topology.DeviceID) (missing, unexpected []topology.DeviceID) {
	return diffHops(expected, actual)
}

// Classify assigns the §2.6.4 severity exactly as the in-package engines
// do; exported for sibling engines that construct Violations directly.
func Classify(v *Violation, role topology.Role) { classify(v, role) }

// diffHops computes missing/unexpected sets between expected and actual
// next hops (both need not be sorted).
func diffHops(expected, actual []topology.DeviceID) (missing, unexpected []topology.DeviceID) {
	em := make(map[topology.DeviceID]bool, len(expected))
	for _, e := range expected {
		em[e] = true
	}
	am := make(map[topology.DeviceID]bool, len(actual))
	for _, a := range actual {
		am[a] = true
		if !em[a] {
			unexpected = append(unexpected, a)
		}
	}
	for _, e := range expected {
		if !am[e] {
			missing = append(missing, e)
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
	sort.Slice(unexpected, func(i, j int) bool { return unexpected[i] < unexpected[j] })
	return missing, unexpected
}

func sameHops(expected, actual []topology.DeviceID) bool {
	m, u := diffHops(expected, actual)
	return len(m) == 0 && len(u) == 0
}

// hopsOKSorted is the allocation-free satisfaction check used by the trie
// checker's fast path. It requires both slices sorted ascending (contracts
// are generated sorted; the FIB sources emit sorted ECMP sets) and reports
// false whenever that precondition fails, sending the caller to the
// general map-based path — so it can only under-approve, never mis-approve.
// exact requires set equality; otherwise actual ⊆ expected suffices.
func hopsOKSorted(expected, actual []topology.DeviceID, exact bool) bool {
	if exact && len(expected) != len(actual) {
		return false
	}
	j := 0
	var prev topology.DeviceID = -1
	for _, a := range actual {
		if a <= prev {
			return false // unsorted or duplicate: take the general path
		}
		prev = a
		for j < len(expected) && expected[j] < a {
			if exact {
				return false // expected hop missing from actual
			}
			j++
		}
		if j >= len(expected) || expected[j] != a {
			return false // unexpected hop
		}
		j++
	}
	if exact && j != len(expected) {
		return false
	}
	return true
}

// Checker verifies a device's FIB against its contracts and returns the
// violations found (§2.5: "produces a list of rules in P that violate the
// contract; the list is empty if P satisfies C").
type Checker interface {
	CheckDevice(tbl *fib.Table, dc contracts.DeviceContracts, role topology.Role) ([]Violation, error)
}

// RowChecker is a Checker that keeps state per device between calls (the
// PEC engine caches each device's atomization) and therefore has two more
// entry points. CheckRows takes a fragment of a device — some of its
// contracts against just the rows they read, as a row-scoped re-check hands
// it — which must not pass for the device's state: it returns what
// CheckDevice would on the same inputs and remembers nothing. Invalidate
// drops what the checker keeps for the given devices; Revalidate calls it
// with a bounded blast radius before re-checking it (a full sweep calls
// nothing). For PEC this evicts rather than corrects: its cache is keyed by
// content, so a stale entry never answers for a changed table.
type RowChecker interface {
	Checker
	CheckRows(tbl *fib.Table, dc contracts.DeviceContracts, role topology.Role) ([]Violation, error)
	Invalidate(devs []topology.DeviceID)
}
