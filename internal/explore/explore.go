package explore

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/clock"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/monitor"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// Options configures a failure-space exploration.
type Options struct {
	// K is the maximum number of simultaneous faults (default 1).
	K int
	// OnlyK restricts exploration to exactly-K-fault scenarios; by default
	// every size from 1 through K is covered.
	OnlyK bool

	// Fault universe selectors. When none is set, links, devices, and BGP
	// sessions are all explored; telemetry blackouts are always opt-in.
	Links, Devices, Sessions bool
	// Telemetry adds management-plane blackouts to the universe: the
	// device forwards but cannot be observed. These scenarios degrade
	// monitoring and are triaged as telemetry loss, never reported as
	// contract violations.
	Telemetry bool

	// NoPrune disables symmetry pruning (brute force over all scenarios).
	NoPrune bool
	// UnionECMP turns on the ACORN-style route-nondeterminism abstraction:
	// synthesized next-hop sets are the union of all ECMP tie-break
	// choices, so one validation covers every choice — and symmetry
	// pruning stays sound under MaxECMPPaths truncation.
	UnionECMP bool
	// Ordered additionally explores ordered fault sequences per scenario,
	// validating after every step, with partial-order reduction: only
	// orderings whose adjacent blast radii overlap are distinguished.
	Ordered bool

	// Exact extends the exact-ECMP-set requirement to specific contracts.
	Exact bool
	// Workers is the number of parallel scenario workers, each with its
	// own topology clone and FIB source (0 = GOMAXPROCS).
	Workers int
	// Clock times the run; nil means the system clock.
	Clock clock.Clock
	// Metrics, when non-nil, receives exploration counters.
	Metrics *Metrics
}

// Finding is one per-device scenario outcome routed through the §2.6.1
// triage rules.
type Finding struct {
	Device     topology.DeviceID
	Name       string
	Class      monitor.ErrorClass
	Queue      monitor.RemediationQueueName
	Detail     string
	Violations int
}

// Scenario is one explored equivalence-class representative.
type Scenario struct {
	// Faults is the canonical (lexicographically minimal) member of the
	// class.
	Faults []Fault
	// Key is the deterministic identity of Faults.
	Key string
	// Weight is how many concrete scenarios the class represents
	// (orbit size under the verified automorphisms; 1 without pruning).
	Weight int
	// Violations are the contract violations introduced by the scenario
	// relative to the healthy baseline.
	Violations []rcdc.Violation
	// Findings are the violations triaged per device.
	Findings []Finding
	// Degraded lists devices whose telemetry was blacked out: they could
	// not be observed, kept their baseline verdict, and are reported as
	// monitoring degradation rather than contract violations.
	Degraded []topology.DeviceID
}

// MinimalSet is a locally minimal failure set for one violated contract:
// removing any single fault stops that contract from failing.
type MinimalSet struct {
	// ContractKey identifies the violated contract instance as
	// "device|kind|prefix|violation-kind".
	ContractKey string
	// Faults is the shrunk fault set.
	Faults []Fault
	// Scenario is the Key of the explored class representative the set
	// was shrunk from.
	Scenario string
}

// TraceStats summarizes ordered-sequence exploration (Ordered mode).
type TraceStats struct {
	// Total is the number of ordered traces over all explored classes
	// (k! per class, weighted by class size).
	Total uint64
	// Canonical is how many orderings survived partial-order reduction
	// across the explored class representatives.
	Canonical int
	// Violating counts canonical traces with at least one violating step.
	Violating int
	// TransientKeys are contract keys that violated at an intermediate
	// step of some trace but not in the final state — failures only
	// ordered exploration can see.
	TransientKeys []string
}

// Result is the outcome of a failure-space exploration.
type Result struct {
	// Universe is the number of elementary faults explored over.
	Universe int
	// Total is the number of concrete scenarios in the space.
	Total uint64
	// Explored is the number of class representatives revalidated.
	Explored int
	// Pruned is the number of concrete scenarios skipped as symmetric to
	// an explored representative.
	Pruned uint64
	// Generators is the number of verified automorphisms used.
	Generators int
	// Violating are the explored scenarios that introduced contract
	// violations, sorted by Key.
	Violating []Scenario
	// DegradedOnly counts explored scenarios that degraded monitoring
	// (telemetry loss) without violating any contract.
	DegradedOnly int
	// MinimalSets are the locally minimal failure sets per violated
	// contract, deduplicated and deterministically ordered.
	MinimalSets []MinimalSet
	// Traces is ordered-mode output (nil unless Options.Ordered).
	Traces *TraceStats
	// Elapsed is the wall time of the run under the injected clock.
	Elapsed time.Duration
}

// PruningRatio is total scenarios over explored representatives: how much
// work symmetry pruning saved (1.0 = none).
func (r *Result) PruningRatio() float64 {
	if r.Explored == 0 {
		return 1
	}
	return float64(r.Total) / float64(r.Explored)
}

// ScenariosPerSec is the effective certification rate: concrete scenarios
// covered (explored + pruned) per second of wall time.
func (r *Result) ScenariosPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Total) / r.Elapsed.Seconds()
}

// Explorer is the failure-space model checker. It never mutates Topo:
// every worker operates on its own clone, checkpointing and restoring
// link state around each scenario so the world is built exactly once.
type Explorer struct {
	Topo *topology.Topology
	Cfg  map[topology.DeviceID]*bgp.DeviceConfig
	Opts Options
}

// universe enumerates the elementary faults of the base state, sorted in
// the canonical fault order: physically-up links can be cut, devices with
// at least one live link can be lost, live sessions can be shut, and any
// device's telemetry can be blacked out.
func (e *Explorer) universe() []Fault {
	o := e.Opts
	all := !o.Links && !o.Devices && !o.Sessions
	var out []Fault
	if o.Links || all {
		for i := range e.Topo.Links {
			if e.Topo.Links[i].Up {
				out = append(out, Fault{Kind: FaultLink, Link: topology.LinkID(i), Device: topology.None})
			}
		}
	}
	if o.Devices || all {
		for i := range e.Topo.Devices {
			d := topology.DeviceID(i)
			for _, lid := range e.Topo.LinksOf(d) {
				if e.Topo.Link(lid).Live() {
					out = append(out, Fault{Kind: FaultDevice, Link: -1, Device: d})
					break
				}
			}
		}
	}
	if o.Sessions || all {
		for i := range e.Topo.Links {
			if e.Topo.Links[i].Live() {
				out = append(out, Fault{Kind: FaultSession, Link: topology.LinkID(i), Device: topology.None})
			}
		}
	}
	if o.Telemetry {
		for i := range e.Topo.Devices {
			out = append(out, Fault{Kind: FaultTelemetry, Link: -1, Device: topology.DeviceID(i)})
		}
	}
	sortFaults(out)
	return out
}

// binom is C(n, k); exact for the scenario-space sizes k-bounded
// exploration meets.
func binom(n, k int) uint64 {
	if k < 0 || k > n {
		return 0
	}
	res := uint64(1)
	for i := 1; i <= k; i++ {
		res = res * uint64(n-k+i) / uint64(i)
	}
	return res
}

// job is one class representative dispatched to a worker.
type job struct {
	faults []Fault
	weight int
}

// outcome is a worker's verdict on one job.
type outcome struct {
	scenario Scenario
	minimal  []MinimalSet
	trace    *traceOutcome
	err      error
}

// Run explores the failure space and returns the aggregated result. The
// base topology and configs are read, never mutated.
func (e *Explorer) Run() (*Result, error) {
	o := e.Opts
	k := o.K
	if k < 1 {
		k = 1
	}
	clk := clock.Or(o.Clock)
	start := clk.Now()

	universe := e.universe()
	res := &Result{Universe: len(universe)}
	lo := 1
	if o.OnlyK {
		lo = k
	}
	for s := lo; s <= k; s++ {
		res.Total += binom(len(universe), s)
	}
	if len(universe) == 0 || res.Total == 0 {
		res.Elapsed = clock.Since(o.Clock, start)
		return res, nil
	}

	sym := &Symmetry{}
	if !o.NoPrune {
		sym = ComputeSymmetry(e.Topo, e.Cfg, o.UnionECMP)
	}
	res.Generators = sym.Generators()

	var blasts map[Fault]*delta.Set
	if o.Ordered {
		var err error
		if blasts, err = e.blastSets(universe); err != nil {
			return nil, err
		}
	}

	nw := o.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}

	workers := make([]*worker, nw)
	for i := range workers {
		w, err := newWorker(e, blasts)
		if err != nil {
			return nil, err
		}
		workers[i] = w
	}

	jobs := make(chan job, nw)
	outs := make(chan outcome, nw)
	done := make(chan struct{})
	var outcomes []outcome
	go func() {
		for out := range outs {
			outcomes = append(outcomes, out)
		}
		close(done)
	}()
	idle := make(chan struct{}, nw)
	for _, w := range workers {
		w := w
		go func() {
			for j := range jobs {
				outs <- w.process(j)
			}
			idle <- struct{}{}
		}()
	}

	// Enumerate k-subsets in lexicographic order. The first-encountered
	// member of each orbit is therefore the lexicographically minimal one;
	// it becomes the class representative and the rest of the orbit is
	// marked seen and skipped.
	seen := make(map[string]bool)
	explored := 0
	var pruned uint64
	sel := make([]Fault, 0, k)
	var enumerate func(fromIdx, size int)
	enumerate = func(fromIdx, size int) {
		if size == 0 {
			key := Key(sel)
			if seen[key] {
				return
			}
			weight := 1
			if sym.Generators() > 0 {
				weight = sym.Orbit(sel, func(k string) { seen[k] = true })
			} else {
				seen[key] = true
			}
			if weight > 1 {
				pruned += uint64(weight - 1)
				o.Metrics.observePruned(weight - 1)
			}
			explored++
			jobs <- job{faults: append([]Fault(nil), sel...), weight: weight}
			return
		}
		for i := fromIdx; i <= len(universe)-size; i++ {
			sel = append(sel, universe[i])
			enumerate(i+1, size-1)
			sel = sel[:len(sel)-1]
		}
	}
	for s := lo; s <= k; s++ {
		enumerate(0, s)
	}
	close(jobs)
	for i := 0; i < nw; i++ {
		<-idle
	}
	close(outs)
	<-done

	res.Explored = explored
	res.Pruned = pruned
	if got := uint64(explored) + pruned; got != res.Total {
		return nil, fmt.Errorf("explore: class accounting diverged: %d explored + %d pruned != %d total",
			explored, pruned, res.Total)
	}

	seenMin := make(map[string]bool)
	var traces *TraceStats
	transient := make(map[string]bool)
	for _, out := range outcomes {
		if out.err != nil {
			return nil, out.err
		}
		sc := out.scenario
		if len(sc.Violations) > 0 {
			res.Violating = append(res.Violating, sc)
		} else if len(sc.Degraded) > 0 {
			res.DegradedOnly++
		}
		for _, ms := range out.minimal {
			id := ms.ContractKey + "@" + Key(ms.Faults)
			if !seenMin[id] {
				seenMin[id] = true
				res.MinimalSets = append(res.MinimalSets, ms)
			}
		}
		if out.trace != nil {
			if traces == nil {
				traces = &TraceStats{}
			}
			traces.Total += out.trace.total
			traces.Canonical += out.trace.canonical
			traces.Violating += out.trace.violating
			for k := range out.trace.transient {
				transient[k] = true
			}
		}
	}
	sort.Slice(res.Violating, func(i, j int) bool { return res.Violating[i].Key < res.Violating[j].Key })
	sort.Slice(res.MinimalSets, func(i, j int) bool {
		a, b := res.MinimalSets[i], res.MinimalSets[j]
		if a.ContractKey != b.ContractKey {
			return a.ContractKey < b.ContractKey
		}
		return keyLess(a.Faults, b.Faults)
	})
	if traces != nil {
		for k := range transient {
			traces.TransientKeys = append(traces.TransientKeys, k)
		}
		sort.Strings(traces.TransientKeys)
		res.Traces = traces
	}
	res.Elapsed = clock.Since(o.Clock, start)
	return res, nil
}

// ViolationKey identifies a violated contract instance as
// "device|kind|prefix|violation-kind" — the same identity E4 uses to
// compare engine verdicts.
func ViolationKey(v rcdc.Violation) string {
	return fmt.Sprintf("%d|%s|%s|%s", v.Device, v.Contract.Kind, v.Contract.Prefix, v.Kind)
}

// gatedSource wraps the worker's cached FIB source, failing pulls — whole
// tables and row queries alike — for telemetry-dead devices so the
// validator's graceful-degradation path (keep the previous verdict,
// surface the error) models monitoring blindness. Runs cannot fail, so
// while any device is dead the source offers none and the sweep pulls
// tables and rows.
type gatedSource struct {
	*bgp.Synth
	dead map[topology.DeviceID]bool
}

func (g *gatedSource) RunPrefixes() []topology.HostedPrefix {
	if len(g.dead) > 0 {
		return nil
	}
	return g.Synth.RunPrefixes()
}

func (g *gatedSource) blackout(d topology.DeviceID) error {
	if g.dead[d] {
		return fmt.Errorf("explore: telemetry blackout on device %d", d)
	}
	return nil
}

func (g *gatedSource) Table(d topology.DeviceID) (*fib.Table, error) {
	if err := g.blackout(d); err != nil {
		return nil, err
	}
	return g.Synth.Table(d)
}

func (g *gatedSource) Rows(d topology.DeviceID, overlapping []ipnet.Prefix) ([]fib.Entry, error) {
	if err := g.blackout(d); err != nil {
		return nil, err
	}
	return g.Synth.Rows(d, overlapping)
}

// worker owns one clone of the world: topology, cached FIB source,
// contract generator, and healthy-baseline report. Every scenario is an
// apply → delta-revalidate → restore round trip on this clone; the
// baseline is computed once and stays valid because restore returns the
// clone to exactly the base state.
type worker struct {
	ex        *Explorer
	topo      *topology.Topology
	src       *gatedSource
	facts     *metadata.Facts
	cgen      *contracts.Generator
	val       rcdc.Validator
	baseline  *rcdc.Report
	baseKeys  map[string]bool
	unbounded bool
	blasts    map[Fault]*delta.Set
	// cache memoizes the new-violation key set per fault subset, shared
	// between scenario evaluation and shrinking.
	cache map[string]map[string]bool
}

func newWorker(e *Explorer, blasts map[Fault]*delta.Set) (*worker, error) {
	w := &worker{
		ex:     e,
		topo:   e.Topo.Clone(),
		blasts: blasts,
		cache:  make(map[string]map[string]bool),
	}
	w.src = &gatedSource{Synth: bgp.NewSynth(w.topo, e.Cfg)}
	w.src.UnionECMP = e.Opts.UnionECMP
	w.src.EnableTableCache()
	w.facts = metadata.FromTopology(w.topo)
	w.cgen = contracts.NewGenerator(w.facts)
	w.cgen.EnableMemo()
	w.val = rcdc.Validator{
		Checker: rcdc.TrieChecker{Exact: e.Opts.Exact},
		Workers: 1,
		Clock:   e.Opts.Clock,
	}
	w.unbounded = bgp.ConfigUnbounded(e.Cfg)
	base, _, err := w.revalidate(nil)
	if err != nil {
		return nil, fmt.Errorf("explore: baseline validation: %w", err)
	}
	w.baseline = base
	w.baseKeys = make(map[string]bool)
	for _, v := range base.Violations() {
		w.baseKeys[ViolationKey(v)] = true
	}
	return w, nil
}

// applyFaults injects a fault set into t, returning the undo stack and
// the set of telemetry-dead devices. Undo replays the exact inverse flips
// in reverse order, so overlapping faults (a link cut plus the loss of an
// adjacent device) restore to precisely the prior state.
func applyFaults(t *topology.Topology, sc []Fault) (undo func(), dead map[topology.DeviceID]bool) {
	var restores []func()
	for _, f := range sc {
		switch f.Kind {
		case FaultLink:
			if lid := f.Link; t.Link(lid).Up {
				t.SetLinkUp(lid, false)
				restores = append(restores, func() { t.SetLinkUp(lid, true) })
			}
		case FaultSession:
			if lid := f.Link; t.Link(lid).SessionUp {
				t.SetSessionUp(lid, false)
				restores = append(restores, func() { t.SetSessionUp(lid, true) })
			}
		case FaultDevice:
			flipped := t.FailDevice(f.Device)
			restores = append(restores, func() { t.RestoreLinks(flipped) })
		case FaultTelemetry:
			if dead == nil {
				dead = make(map[topology.DeviceID]bool)
			}
			dead[f.Device] = true
		}
	}
	return func() {
		for i := len(restores) - 1; i >= 0; i-- {
			restores[i]()
		}
	}, dead
}

// base returns the healthy baseline as the report of the clone's current
// generation: every scenario ends by restoring the clone to exactly the
// base state, so the baseline describes it at each generation a scenario
// starts from, and the journal window of the next validate holds that
// scenario's faults alone.
func (w *worker) base() *rcdc.Report {
	w.baseline.Generation = w.topo.Generation()
	return w.baseline
}

func (w *worker) revalidate(prev *rcdc.Report) (*rcdc.Report, *delta.Set, error) {
	return w.val.Revalidate(prev, w.topo, w.facts, w.cgen, w.src, delta.Options{UnboundedConfig: w.unbounded})
}

// validate revalidates the current (faulted) clone state against prev, the
// report of the state before the faults: rcdc.Revalidate over the journal
// window since prev.Generation, with telemetry-dead devices blacked out so
// that one inside the blast radius fails its pull and keeps its previous
// verdict.
func (w *worker) validate(dead map[topology.DeviceID]bool, prev *rcdc.Report) (*rcdc.Report, error) {
	w.src.dead = dead
	rep, _, err := w.revalidate(prev)
	if err != nil && len(dead) == 0 {
		return nil, err
	}
	return rep, nil
}

// eval runs one fault set through an apply → validate → restore round
// trip and returns the scenario verdict. It leaves the clone in exactly
// the base state.
func (w *worker) eval(sc []Fault) (Scenario, error) {
	out := Scenario{Faults: append([]Fault(nil), sc...), Key: Key(sc)}
	prev := w.base()
	undo, dead := applyFaults(w.topo, sc)
	rep, err := w.validate(dead, prev)
	if err != nil {
		undo()
		return out, err
	}
	perDevice := make(map[topology.DeviceID][]rcdc.Violation)
	for _, v := range rep.Violations() {
		if !w.baseKeys[ViolationKey(v)] {
			out.Violations = append(out.Violations, v)
			perDevice[v.Device] = append(perDevice[v.Device], v)
		}
	}
	// Triage while the faults are still applied: the §2.6.1 rules
	// correlate violations with the live link state.
	devs := make([]topology.DeviceID, 0, len(perDevice))
	for d := range perDevice {
		devs = append(devs, d)
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
	for _, d := range devs {
		cls, queue, detail := monitor.ClassifyDevice(w.topo, w.ex.Cfg, d, perDevice[d])
		out.Findings = append(out.Findings, Finding{
			Device: d, Name: w.topo.Device(d).Name,
			Class: cls, Queue: queue, Detail: detail,
			Violations: len(perDevice[d]),
		})
	}
	for d := range dead {
		out.Degraded = append(out.Degraded, d)
		out.Findings = append(out.Findings, Finding{
			Device: d, Name: w.topo.Device(d).Name,
			Class: monitor.ClassTelemetryLoss, Queue: monitor.QueueDeviceRecovery,
			Detail: "telemetry blackout: device unobservable, baseline verdict retained",
		})
	}
	sort.Slice(out.Degraded, func(i, j int) bool { return out.Degraded[i] < out.Degraded[j] })
	undo()
	w.cacheKeys(out)
	return out, nil
}

func (w *worker) cacheKeys(sc Scenario) {
	ks := make(map[string]bool, len(sc.Violations))
	for _, v := range sc.Violations {
		ks[ViolationKey(v)] = true
	}
	w.cache[sc.Key] = ks
}

// violationKeys returns the memoized new-violation key set of a subset,
// evaluating it (one shrink iteration) on a miss.
func (w *worker) violationKeys(sc []Fault) (map[string]bool, error) {
	k := Key(sc)
	if ks, ok := w.cache[k]; ok {
		return ks, nil
	}
	w.ex.Opts.Metrics.observeShrink()
	if _, err := w.eval(sc); err != nil {
		return nil, err
	}
	return w.cache[k], nil
}

// shrink reduces a violating scenario to a locally minimal set for one
// contract key, delta-debugging style: repeatedly drop the first fault
// whose removal keeps the contract failing.
func (w *worker) shrink(sc []Fault, vkey string) ([]Fault, error) {
	cur := append([]Fault(nil), sc...)
	for len(cur) > 1 {
		dropped := false
		for i := range cur {
			cand := append(append([]Fault(nil), cur[:i]...), cur[i+1:]...)
			ks, err := w.violationKeys(cand)
			if err != nil {
				return nil, err
			}
			if ks[vkey] {
				cur = cand
				dropped = true
				break
			}
		}
		if !dropped {
			break
		}
	}
	return cur, nil
}

// process handles one dispatched class representative: evaluate, shrink
// each violated contract to a minimal set, and (in Ordered mode) sweep
// the canonical orderings.
func (w *worker) process(j job) outcome {
	o := w.ex.Opts
	clk := clock.Or(o.Clock)
	start := clk.Now()
	sc, err := w.eval(j.faults)
	if err != nil {
		return outcome{err: err}
	}
	sc.Weight = j.weight
	o.Metrics.observeScenario(clock.Since(o.Clock, start), len(sc.Violations) > 0)

	out := outcome{scenario: sc}
	if len(sc.Violations) > 0 {
		vkeys := make(map[string]bool)
		for _, v := range sc.Violations {
			vkeys[ViolationKey(v)] = true
		}
		ordered := make([]string, 0, len(vkeys))
		for k := range vkeys {
			ordered = append(ordered, k)
		}
		sort.Strings(ordered)
		for _, vk := range ordered {
			min, err := w.shrink(j.faults, vk)
			if err != nil {
				return outcome{err: err}
			}
			out.minimal = append(out.minimal, MinimalSet{
				ContractKey: vk, Faults: min, Scenario: sc.Key,
			})
		}
	}
	if o.Ordered && len(j.faults) > 1 {
		tr, err := w.traces(j)
		if err != nil {
			return outcome{err: err}
		}
		out.trace = tr
	}
	return out
}
