package engine

import (
	"fmt"
	"strings"

	"dcvalidate/internal/pec"
)

// Kind names a verification engine. Runs resolve it in this order: an
// explicit Options.Engine wins; then the engine-wide default set by
// SetDefaultEngine; trie last.
type Kind int

const (
	// KindDefault defers to the engine-wide default (trie unless
	// SetDefaultEngine says otherwise).
	KindDefault Kind = iota
	// KindTrie is the specialized prefix-trie engine (§2.5.2).
	KindTrie
	// KindSMT is the bit-vector-logic engine (§2.5.1).
	KindSMT
	// KindPEC is the packet-equivalence-class engine (internal/pec):
	// per-device atoms with interned hop-set IDs, verdicts byte-identical
	// to the trie engine, content-hash cached and blast-radius
	// invalidated.
	KindPEC
)

func (k Kind) String() string {
	switch k {
	case KindTrie:
		return "trie"
	case KindSMT:
		return "smt"
	case KindPEC:
		return "pec"
	}
	return "default"
}

// ParseKind parses an -engine flag value. The empty string means
// KindDefault so binaries can pass flags through untouched.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "":
		return KindDefault, nil
	case "trie":
		return KindTrie, nil
	case "smt":
		return KindSMT, nil
	case "pec":
		return KindPEC, nil
	}
	return KindDefault, fmt.Errorf("dcvalidate: unknown engine %q (want trie, smt, or pec)", s)
}

// SetDefaultEngine sets the checker used by runs that don't name one
// (Options.Engine == KindDefault) — including the serving path's cache
// refreshes, which is how dcvalidated's -engine flag takes effect. The
// report caches are dropped, so the next query revalidates through the
// new engine.
func (e *Engine) SetDefaultEngine(k Kind) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.defaultKind = k
	e.report = nil
	e.reportIdx = nil
}

// DefaultEngine reports the engine-wide default kind.
func (e *Engine) DefaultEngine() Kind {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.defaultKind
}

// resolveKindLocked applies the Options → engine default → trie
// precedence.
func (e *Engine) resolveKindLocked(o Options) Kind {
	switch {
	case o.Engine != KindDefault:
		return o.Engine
	case e.defaultKind != KindDefault:
		return e.defaultKind
	}
	return KindTrie
}

// pecLocked returns the engine-lifetime PEC checker for the given
// semantics, creating it on first use. Persistence is the point: the
// checker's content-hash atomization cache survives across runs, and
// rcdc.Revalidate has it forget the blast radius of each delta run
// (rcdc.RowChecker).
func (e *Engine) pecLocked(exact bool) *pec.Checker {
	p := &e.pec
	if exact {
		p = &e.pecExact
	}
	if *p == nil {
		*p = &pec.Checker{Exact: exact, Clock: e.clk, Metrics: e.pecM}
	}
	return *p
}
