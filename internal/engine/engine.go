// Package engine is the orchestration core of the validation plane: the
// logic that used to be inlined in the dcvalidate facade — topology +
// change journal + FIB synthesis + rcdc validation + blast-radius delta
// planning + lint gating + observability wiring — extracted behind a
// narrow interface (Validate, ValidateDelta, Query, Apply) so it can be
// driven by two frontends without duplication:
//
//   - the public dcvalidate.Datacenter facade (a thin, source-compatible
//     client of this package),
//   - the dcvalidated HTTP server (internal/serve), which exposes the
//     Query API over the wire.
//
// The Engine owns the serving caches the paper's production pipeline
// implies (Figure 5): a generation-keyed report cache (steady-state
// conformance queries are O(1) map hits with zero revalidation work) and
// the FIB synthesis state behind it, kept current from the change journal,
// whose runs reachability queries walk without copying a table. It is safe
// for concurrent use: mutations (Apply) and validations take the write
// lock, cached queries and the reachability walks over a current synthesis
// take the read lock only.
package engine

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/bv"
	"dcvalidate/internal/clock"
	"dcvalidate/internal/conflint"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/devconf"
	"dcvalidate/internal/emulator"
	"dcvalidate/internal/explore"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/monitor"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/par"
	"dcvalidate/internal/pec"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// Options configures one validation run (the engine-level mirror of the
// facade's ValidateOptions).
type Options struct {
	// Engine selects the verification engine for this run. KindDefault
	// defers to the engine-wide default (SetDefaultEngine), then trie.
	Engine Kind
	// Exact extends the exact-ECMP-set requirement to specific contracts.
	Exact bool
	// Workers is the parallelism degree (0 = all CPUs).
	Workers int
	// Source overrides the FIB source (fault injection, SimulateBGP).
	Source fib.Source
}

// Engine bundles a topology with its metadata facts, converged FIB
// synthesis, incremental-validation state, serving caches, and
// observability wiring. Create one with New; zero values are not usable.
type Engine struct {
	mu   sync.RWMutex
	topo *topology.Topology
	cfg  map[topology.DeviceID]*bgp.DeviceConfig
	clk  clock.Clock

	facts *metadata.Facts // regenerated lazily if nil

	// Incremental-validation state: a persistent FIB source whose
	// synthesis state follows the journal, and a memoized contract
	// generator.
	synth *bgp.Synth
	cgen  *contracts.Generator

	// The report cache, keyed on the topology generation: the last
	// complete sweep, and reportIdx indexing it by device name for O(1)
	// conformance answers.
	report    *rcdc.Report
	reportIdx map[string]int

	// lintGate makes Apply(SetConfig) render and statically lint the
	// candidate fleet, rejecting changes that introduce findings.
	lintGate bool

	// defaultKind routes runs that don't name an engine; pec/pecExact are
	// the engine-lifetime packet-equivalence-class checkers (created
	// lazily so non-PEC engines never pay for them) whose content-keyed
	// atomization caches survive every run.
	defaultKind Kind
	pec         *pec.Checker
	pecExact    *pec.Checker

	// Observability: nil — and every call site a no-op — until Metrics()
	// is first called. tracer records each change-driven sweep's
	// rcdc.Revalidate span and its window, refresh and check stages.
	reg       *obs.Registry
	tracer    *obs.Tracer
	rcdcM     *rcdc.Metrics
	bvM       *bv.Metrics
	bgpM      *bgp.Metrics
	deltaM    *delta.Metrics
	exploreM  *explore.Metrics
	conflintM *conflint.Metrics
	pecM      *pec.Metrics
	serveM    *Metrics
}

// New returns an engine over the topology and device-configuration map.
// The map is shared, not copied: the facade exposes it as a public field,
// so both layers must observe the same storage. A nil cfg gets a fresh
// empty map.
func New(topo *topology.Topology, cfg map[topology.DeviceID]*bgp.DeviceConfig) *Engine {
	if cfg == nil {
		cfg = map[topology.DeviceID]*bgp.DeviceConfig{}
	}
	return &Engine{topo: topo, cfg: cfg}
}

// Topo returns the engine's topology. Direct mutation bypasses the
// engine's locking; concurrent callers must go through Apply.
func (e *Engine) Topo() *topology.Topology { return e.topo }

// Config returns the shared device-configuration map. Concurrent callers
// must mutate it through Apply (SetConfig), never directly.
func (e *Engine) Config() map[topology.DeviceID]*bgp.DeviceConfig { return e.cfg }

// SetClock injects the time source used for query-latency observation
// and sweep tracing; nil (the default) means the system clock.
func (e *Engine) SetClock(c clock.Clock) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.clk = c
	if e.tracer != nil {
		e.tracer = obs.NewTracer(c, 256)
	}
}

// Facts returns the metadata snapshot, generated on first call and then
// cached forever by design: facts model intent, so link failures and
// session shutdowns MUST NOT alter them (§2.4) — only intent edits would,
// and the engine does not support those on a built topology.
func (e *Engine) Facts() *metadata.Facts {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.factsLocked()
}

func (e *Engine) factsLocked() *metadata.Facts {
	if e.facts == nil {
		e.facts = metadata.FromTopology(e.topo)
	}
	return e.facts
}

// besideFactsLocked runs build — a FIB source's construction — and, when
// the facts are not built yet, the facts build beside it as two par.For
// jobs: both only read the topology, so a fresh engine's first sweep waits
// for the longer of the two rather than their sum. workers is Options.Workers
// (0 = all CPUs, 1 = one after the other).
func (e *Engine) besideFactsLocked(workers int, build func()) {
	if e.facts != nil {
		build()
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	par.For(2, workers, func(_, i int) {
		if i == 0 {
			build()
		} else {
			e.facts = metadata.FromTopology(e.topo)
		}
	})
}

// Metrics returns the engine's metric registry, creating it — and wiring
// the per-subsystem instrumentation bundles into every validator, solver,
// FIB source, and blast-radius computation the engine builds, and a tracer
// (on the engine clock) whose ring holds the most recent sweeps' spans —
// on first call. Until then instrumentation is off and costs nothing.
func (e *Engine) Metrics() *obs.Registry {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.reg == nil {
		e.reg = obs.NewRegistry()
		e.rcdcM = rcdc.NewMetrics(e.reg)
		e.bvM = bv.NewMetrics(e.reg)
		e.bgpM = bgp.NewMetrics(e.reg)
		e.deltaM = delta.NewMetrics(e.reg)
		e.exploreM = explore.NewMetrics(e.reg)
		e.conflintM = conflint.NewMetrics(e.reg)
		e.pecM = pec.NewMetrics(e.reg)
		e.serveM = NewMetrics(e.reg)
		e.tracer = obs.NewTracer(e.clk, 256)
		if e.pec != nil {
			e.pec.Metrics = e.pecM
		}
		if e.pecExact != nil {
			e.pecExact.Metrics = e.pecM
		}
	}
	return e.reg
}

// Contracts generates the full contract set for every device from the
// metadata facts (§2.4.1–2.4.3).
func (e *Engine) Contracts() []contracts.DeviceContracts {
	e.mu.Lock()
	defer e.mu.Unlock()
	return contracts.NewGenerator(e.factsLocked()).All()
}

// NewSource returns a fresh converged-state FIB source reflecting current
// link state and device configurations.
func (e *Engine) NewSource() fib.Source {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.newSourceLocked()
}

func (e *Engine) newSourceLocked() *bgp.Synth {
	return bgp.NewSynth(e.topo, e.cfg)
}

// SimulateBGP runs the full EBGP path-vector simulation and returns it as
// a FIB source (higher fidelity than NewSource; cost scales with the
// datacenter).
func (e *Engine) SimulateBGP() fib.Source {
	e.mu.Lock()
	defer e.mu.Unlock()
	sim := bgp.NewSim(e.topo, e.cfg)
	sim.Metrics = e.bgpM
	sim.Run()
	return sim
}

// cachedSourceLocked returns the persistent FIB source behind incremental
// validation, the serving caches and /reach: one synthesis state, kept
// across writes. It is as fresh as its last refresh; rcdc.Revalidate
// refreshes it from the journal.
func (e *Engine) cachedSourceLocked() *bgp.Synth {
	if e.synth == nil {
		e.synth = bgp.NewSynth(e.topo, e.cfg)
	}
	return e.synth
}

// freshSourceLocked returns the persistent source brought up to the current
// generation from the journal. Caller holds the write lock.
func (e *Engine) freshSourceLocked() *bgp.Synth {
	s := e.cachedSourceLocked()
	if s.Generation() != e.topo.Generation() {
		s.RefreshDelta()
	}
	return s
}

// ChangeKind enumerates the mutations Apply supports.
type ChangeKind int

const (
	// FailLink marks the link between A and B physically down.
	FailLink ChangeKind = iota
	// RestoreLink marks the link between A and B physically up again.
	RestoreLink
	// ShutSession administratively shuts the BGP session between A and B.
	ShutSession
	// RestoreSession brings the BGP session between A and B back up.
	RestoreSession
	// SetConfig installs (or, with a nil Config, clears) Device's
	// configuration, journaling the change; subject to the lint gate.
	SetConfig
	// RestoreAll returns every link and session to the healthy state.
	RestoreAll
)

// Change is one mutation for Apply: link/session flips between named
// devices A and B, a device-config install on Device, or a fleet-wide
// restore.
type Change struct {
	Kind   ChangeKind
	A, B   string
	Device string
	Config *bgp.DeviceConfig
}

// Apply performs one topology or configuration mutation under the write
// lock, journaling it so incremental revalidation and the serving caches
// observe it. Error strings keep the facade's "dcvalidate:" namespace —
// they surface verbatim through the public API.
func (e *Engine) Apply(c Change) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch c.Kind {
	case FailLink, RestoreLink, ShutSession, RestoreSession:
		da, db, err := e.pairLocked(c.A, c.B)
		if err != nil {
			return err
		}
		var ok bool
		switch c.Kind {
		case FailLink:
			ok = e.topo.FailLink(da, db)
		case RestoreLink:
			ok = e.topo.RestoreLink(da, db)
		case ShutSession:
			ok = e.topo.ShutSession(da, db)
		default: // RestoreSession
			if l, found := e.topo.LinkBetween(da, db); found {
				e.topo.SetSessionUp(l.ID, true)
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("dcvalidate: no link between %s and %s", c.A, c.B)
		}
		return nil
	case SetConfig:
		return e.setConfigLocked(c.Device, c.Config)
	case RestoreAll:
		e.topo.RestoreAll()
		return nil
	}
	return fmt.Errorf("dcvalidate: unknown change kind %d", c.Kind)
}

func (e *Engine) pairLocked(a, b string) (topology.DeviceID, topology.DeviceID, error) {
	da, ok := e.topo.ByName(a)
	if !ok {
		return 0, 0, fmt.Errorf("dcvalidate: unknown device %q", a)
	}
	db, ok := e.topo.ByName(b)
	if !ok {
		return 0, 0, fmt.Errorf("dcvalidate: unknown device %q", b)
	}
	return da.ID, db.ID, nil
}

func (e *Engine) setConfigLocked(device string, cfg *bgp.DeviceConfig) error {
	dev, ok := e.topo.ByName(device)
	if !ok {
		return fmt.Errorf("dcvalidate: unknown device %q", device)
	}
	if e.lintGate {
		candidate := make(map[topology.DeviceID]*bgp.DeviceConfig, len(e.cfg)+1)
		for id, c := range e.cfg {
			candidate[id] = c
		}
		if cfg == nil {
			delete(candidate, dev.ID)
		} else {
			candidate[dev.ID] = cfg
		}
		rep, err := e.lintLocked(candidate)
		if err != nil {
			return err
		}
		if len(rep.Findings) > 0 {
			return &LintError{Device: device, Report: rep}
		}
	}
	if cfg == nil {
		delete(e.cfg, dev.ID)
	} else {
		e.cfg[dev.ID] = cfg
	}
	e.topo.NoteDeviceChanged(dev.ID)
	return nil
}

// EnableLintGate turns on lint-before-apply for SetConfig changes.
func (e *Engine) EnableLintGate() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lintGate = true
}

// DisableLintGate turns lint-before-apply back off.
func (e *Engine) DisableLintGate() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lintGate = false
}

// Lint renders the current fleet and runs the conflint analyzer suite
// over it.
func (e *Engine) Lint() (*conflint.Report, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lintLocked(e.cfg)
}

func (e *Engine) lintLocked(cfgs map[topology.DeviceID]*bgp.DeviceConfig) (*conflint.Report, error) {
	texts, err := devconf.RenderFleet(e.topo, cfgs)
	if err != nil {
		return nil, err
	}
	fleet, err := conflint.NewFleet(e.topo, texts)
	if err != nil {
		return nil, err
	}
	return (&conflint.Runner{Metrics: e.conflintM}).Run(fleet)
}

// LintError is returned by Apply(SetConfig) when the lint gate rejects a
// change; Report carries the findings that would have been introduced.
type LintError struct {
	Device string
	Report *conflint.Report
}

func (e *LintError) Error() string {
	return fmt.Sprintf("dcvalidate: lint gate rejected config change on %s: %d finding(s)\n%s",
		e.Device, len(e.Report.Findings), e.Report)
}

// checkerLocked builds the verification engine for one run, threading the
// per-engine instrumentation (nil until Metrics() is called) into the SMT
// and PEC paths — the trie engine never allocates a solver. PEC checkers
// are persistent (see pecLocked) so their atomization caches amortize
// across runs.
func (e *Engine) checkerLocked(o Options) rcdc.Checker {
	switch e.resolveKindLocked(o) {
	case KindSMT:
		return rcdc.SMTChecker{Exact: o.Exact, Metrics: e.bvM}
	case KindPEC:
		return e.pecLocked(o.Exact)
	}
	return rcdc.TrieChecker{Exact: o.Exact}
}

// Validate runs local validation over every device. The report is stamped
// with the topology generation observed before pulling, so it can seed
// ValidateDelta.
func (e *Engine) Validate(opts Options) (*rcdc.Report, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.validateLocked(opts)
}

func (e *Engine) validateLocked(opts Options) (*rcdc.Report, error) {
	gen := e.topo.Generation()
	src := opts.Source
	if src == nil {
		e.besideFactsLocked(opts.Workers, func() { src = e.newSourceLocked() })
	}
	v := rcdc.Validator{Checker: e.checkerLocked(opts), Workers: opts.Workers, Metrics: e.rcdcM}
	rep, err := v.ValidateAll(e.factsLocked(), src)
	if rep != nil {
		rep.Generation = gen
	}
	return rep, err
}

// ValidateDelta revalidates only the blast radius of the topology changes
// journaled since prev was taken — per device, only the rows the changes
// can have moved and the contracts that read them — splicing the fresh
// results into prev: byte-for-byte identical to a from-scratch Validate of
// the current state. It falls back to a full Validate when prev is nil,
// the journal no longer reaches back, or the blast radius is unbounded.
func (e *Engine) ValidateDelta(prev *rcdc.Report, opts Options) (*rcdc.Report, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.validateDeltaLocked(prev, opts)
}

func (e *Engine) validateDeltaLocked(prev *rcdc.Report, opts Options) (*rcdc.Report, error) {
	if opts.Source == nil {
		e.besideFactsLocked(opts.Workers, func() { opts.Source = e.cachedSourceLocked() })
	}
	if e.cgen == nil {
		e.cgen = contracts.NewGenerator(e.factsLocked())
		e.cgen.EnableMemo()
	}
	v := rcdc.Validator{Checker: e.checkerLocked(opts), Workers: opts.Workers, Metrics: e.rcdcM, Tracer: e.tracer}
	rep, _, err := v.Revalidate(prev, e.topo, e.factsLocked(), e.cgen, opts.Source, delta.Options{
		UnboundedConfig: bgp.ConfigUnbounded(e.cfg),
		Metrics:         e.deltaM,
	})
	return rep, err
}

// CheckGlobalIntent verifies all-pairs ToR reachability along maximally
// redundant shortest paths by walking each prefix's forwarding cone over
// the maintained synthesis under the read lock, as QueryReach does; empty
// result means the intent holds. Config edits must go through Apply to be
// seen.
func (e *Engine) CheckGlobalIntent() ([]rcdc.PairResult, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.freshenRLocked()
	return rcdc.NewSliceChecker(e.topo, e.synth).Check(rcdc.FullRedundancy), nil
}

// ExploreFailures model-checks the contracts against every combination of
// up to opts.K simultaneous failures on a clone of the topology.
func (e *Engine) ExploreFailures(opts explore.Options) (*explore.Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if opts.Metrics == nil {
		opts.Metrics = e.exploreM
	}
	return (&explore.Explorer{Topo: e.topo, Cfg: e.cfg, Opts: opts}).Run()
}

// NewPipeline returns the §2.7 precheck pipeline treating this engine's
// datacenter as production.
func (e *Engine) NewPipeline() *emulator.Pipeline {
	e.mu.Lock()
	defer e.mu.Unlock()
	net := emulator.NewNetwork(e.topo)
	net.Cfg = e.cfg
	return &emulator.Pipeline{Production: net}
}

// NewMonitor returns an RCDC live-monitoring instance watching this
// datacenter (Figure 5), wired into the engine's registry when Metrics()
// has been called.
func (e *Engine) NewMonitor(name string) *monitor.Instance {
	e.mu.Lock()
	defer e.mu.Unlock()
	dc := monitor.NewDatacenter(e.topo.Params.Name, e.topo, e.cfg)
	dc.Source = e.newSourceLocked()
	in := monitor.NewInstance(name, dc)
	if e.reg != nil {
		in.EnableObservability(e.reg)
	}
	return in
}

// WriteFIB renders a device's routing table in the Figure 2 text format.
func (e *Engine) WriteFIB(w io.Writer, device string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	dev, ok := e.topo.ByName(device)
	if !ok {
		return fmt.Errorf("dcvalidate: unknown device %q", device)
	}
	tbl, err := e.newSourceLocked().Table(dev.ID)
	if err != nil {
		return err
	}
	return tbl.WriteText(w, e.topo)
}
