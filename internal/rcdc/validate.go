package rcdc

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dcvalidate/internal/clock"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/par"
	"dcvalidate/internal/topology"
)

// DeviceReport is the validation outcome for one device.
type DeviceReport struct {
	Device     topology.DeviceID
	Name       string
	Role       topology.Role
	Contracts  int
	Violations []Violation
	Elapsed    time.Duration
}

// Healthy reports whether the device passed all its contracts.
func (r *DeviceReport) Healthy() bool { return len(r.Violations) == 0 }

// Report aggregates a validation run over a set of devices.
type Report struct {
	Devices  []DeviceReport
	Elapsed  time.Duration
	Workers  int
	Checked  int // total contracts checked
	Failures int // total violations
	// Generation is the topology generation the report reflects. Revalidate
	// stamps it and reads it back as the start of the next journal window;
	// ValidateAll, ValidateDelta and ValidateScoped leave it to the caller.
	Generation uint64
}

// HighRisk returns the number of high-risk violations (§2.6.4).
func (r *Report) HighRisk() int {
	n := 0
	for i := range r.Devices {
		for _, v := range r.Devices[i].Violations {
			if v.Severity == HighRisk {
				n++
			}
		}
	}
	return n
}

// Violations flattens all violations across devices. The returned slice
// is a deep copy: callers may sort it, truncate it, or edit the next-hop
// sets of individual violations without corrupting the report — or the
// cached per-device results the serving and shard layers splice reports
// from, or the memoized contract generator whose NextHops slices the
// violations would otherwise alias.
func (r *Report) Violations() []Violation {
	var out []Violation
	for i := range r.Devices {
		for _, v := range r.Devices[i].Violations {
			out = append(out, v.Clone())
		}
	}
	return out
}

// Validator runs local validation: each device is checked against its own
// contracts in isolation, so devices can be validated in parallel and no
// global snapshot is ever formed (§2.4).
type Validator struct {
	// Checker is the verification engine; defaults to TrieChecker.
	Checker Checker
	// Workers is the parallelism degree; 0 means GOMAXPROCS, 1 models the
	// paper's single-CPU measurements.
	Workers int
	// Clock times the per-device and whole-run measurements; nil means
	// the system clock. Tests inject a clock.Virtual for reproducible
	// Elapsed fields.
	Clock clock.Clock
	// Metrics, when non-nil, receives per-device check latencies and
	// per-run counters (see NewMetrics). Instrumentation never alters
	// validation results.
	Metrics *Metrics
	// Tracer, when non-nil, records a span per validation run.
	Tracer *obs.Tracer
	// Contracts, when non-nil, supplies the generator ValidateAll uses
	// instead of building a transient one per run. Pair it with a
	// memoizing generator (EnableMemo) so repeated sweeps reuse the same
	// contract sets — what keeps a steady-state sweep free of allocations
	// per device (the make bench-smoke gate).
	Contracts *contracts.Generator
}

func (v *Validator) checker() Checker {
	if v.Checker != nil {
		return v.Checker
	}
	return TrieChecker{}
}

// ValidateDevice checks one device's table against its contracts.
func (v *Validator) ValidateDevice(facts *metadata.Facts, tbl *fib.Table, dc contracts.DeviceContracts) (DeviceReport, error) {
	start := clock.Or(v.Clock).Now()
	df := facts.Device(dc.Device)
	viols, err := v.checker().CheckDevice(tbl, dc, df.Role)
	if err != nil {
		return DeviceReport{}, err
	}
	rep := DeviceReport{
		Device: dc.Device, Name: df.Name, Role: df.Role,
		Contracts: len(dc.Contracts), Violations: viols,
		Elapsed: clock.Since(v.Clock, start),
	}
	v.Metrics.observeDevice(&rep)
	return rep, nil
}

func (v *Validator) workers() int {
	if v.Workers > 0 {
		return v.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Refresher is implemented by a fib.Source that follows the live topology
// (bgp.Synth, the shard coordinator): Refresh derives it afresh, and
// RefreshDelta brings it up to the current generation from the change
// journal, which it reads itself.
type Refresher interface {
	Refresh()
	RefreshDelta()
}

// sweep is what one ValidateAll or ValidateScoped checks whole devices
// against: the facts, the contract generator and the FIB source — with the
// source's runs, when the sweep can check runs (see newSweep).
type sweep struct {
	v      *Validator
	facts  *metadata.Facts
	gen    *contracts.Generator
	source fib.Source
	// memo says gen may memoize, so its contract sets are shared: take them
	// with ForDevice, never generate into a worker's buffer.
	memo bool

	runs     RunSource               // nil: check tables row by row
	prefixes []topology.HostedPrefix // the list runs index
	exact    bool                    // the trie checker's Exact
	classes  ClassSource             // nil: every scoped device merged on its own
}

// sweepBuf is one worker's buffers, reused from device to device: nothing
// checked keeps them (violations hold copies; the trie checker keeps no
// table).
type sweepBuf struct {
	contracts    []contracts.Contract
	contractRuns []contracts.Run
	pulled       fib.RunTable
	rows         []fib.Entry
	table        fib.Table // the fragment a merge checks
	marks        []span
	spans        []span
	read         []ipnet.Prefix
	// scope is the last scope without the default row the worker mapped
	// to spans (see sweep.scoped).
	scope struct {
		first *ipnet.Prefix
		n     int
		spans []span
	}
	// classes holds the verdicts of the class representatives the worker
	// merged (see checkRuns), full and scoped checks' alike and for this
	// sweep only, classes[lastClass] the one found last; classRuns backs
	// their contract runs, and members counts the devices of a scoped check
	// that took a verdict.
	classes   []classVerdict
	classRuns []contracts.Run
	lastClass int
	members   int
	// mark is when the worker's last device check ended, zero before its
	// first: the next check starts there, so timing a device reads the
	// clock once.
	mark time.Time
	busy time.Duration // the Elapsed of the devices ValidateScoped checked
}

// start returns when the worker's next device check starts.
func (b *sweepBuf) start(c clock.Clock) time.Time {
	if b.mark.IsZero() {
		b.mark = clock.Or(c).Now()
	}
	return b.mark
}

// end ends the worker's device check begun at start, returning its
// elapsed time.
func (b *sweepBuf) end(c clock.Clock, start time.Time) time.Duration {
	b.mark = clock.Or(c).Now()
	return b.mark.Sub(start)
}

// checkWhole pulls one device's table and validates it against all its
// contracts — as runs when the sweep has them (checkRuns), else row by row:
// the contracts are generated into the worker's buffer, replacing the
// previous device's, unless the generator memoizes.
func (s *sweep) checkWhole(id topology.DeviceID, buf *sweepBuf) (DeviceReport, error) {
	if s.runs != nil {
		rep, _, err := s.checkRuns(id, buf, nil, nil)
		return rep, err
	}
	tbl, err := s.source.Table(id)
	if err != nil {
		return DeviceReport{}, fmt.Errorf("rcdc: pulling table for device %d: %w", id, err)
	}
	if s.memo {
		return s.v.ValidateDevice(s.facts, tbl, s.gen.ForDevice(id))
	}
	dc := s.gen.Generate(id, buf.contracts)
	buf.contracts = dc.Contracts
	return s.v.ValidateDevice(s.facts, tbl, dc)
}

// validateSet checks an ascending device list on the worker pool (package
// par): each device's report comes from check, which is also handed
// buffers that belong to the worker calling it, and lands in the device's
// slot. It returns the reports and every per-device error, both in device
// order (the two are disjoint: an errored device produces no report).
func (v *Validator) validateSet(devs []topology.DeviceID, check func(topology.DeviceID, *sweepBuf) (DeviceReport, error)) ([]DeviceReport, []error) {
	reps := make([]DeviceReport, len(devs))
	errs := make([]error, len(devs))
	bufs := make([]sweepBuf, min(v.workers(), len(devs)))
	par.For(len(devs), len(bufs), func(w, i int) {
		reps[i], errs[i] = check(devs[i], &bufs[w])
	})
	n := 0
	var failed []error
	for i := range reps {
		if errs[i] != nil {
			failed = append(failed, errs[i])
			continue
		}
		reps[n] = reps[i]
		n++
	}
	return reps[:n], failed
}

// ValidateAll checks every device, pulling each FIB from the source and
// generating its contracts on the fly. Neither is retained — a worker
// regenerates contracts into one buffer — so memory stays O(one device) per
// worker regardless of datacenter size. A Checker must not keep
// dc.Contracts past CheckDevice (violations hold copies).
//
// Per-device failures degrade rather than abort: the returned report
// covers every device that validated, alongside an errors.Join of the
// devices that did not — mirroring the monitor's graceful-degradation
// policy. Callers that need all-or-nothing semantics should treat a
// non-nil error as fatal; callers that can tolerate partial coverage get
// the partial report either way.
func (v *Validator) ValidateAll(facts *metadata.Facts, source fib.Source) (*Report, error) {
	sp := v.Tracer.Start("rcdc.ValidateAll")
	defer sp.End()
	start := clock.Or(v.Clock).Now()
	devs := make([]topology.DeviceID, len(facts.Devices))
	for i := range facts.Devices {
		devs[i] = facts.Devices[i].ID
	}
	// The caller's generator may memoize: its sets are shared.
	sw := v.newSweep(facts, v.gen(facts), source, v.Contracts != nil)
	reps, errs := v.validateSet(devs, sw.checkWhole)
	rep := &Report{Workers: v.workers(), Devices: reps}
	for i := range reps {
		rep.Checked += reps[i].Contracts
		rep.Failures += len(reps[i].Violations)
	}
	rep.Elapsed = clock.Since(v.Clock, start)
	v.Metrics.observeRun("full", rep, len(devs), busyTime(reps))
	return rep, errors.Join(errs...)
}

func (v *Validator) gen(facts *metadata.Facts) *contracts.Generator {
	if v.Contracts != nil {
		return v.Contracts
	}
	return contracts.NewGenerator(facts)
}

// ValidateDelta revalidates only the dirty devices (a blast-radius set
// from internal/delta) and splices the fresh results into prev, carrying
// every other device's result forward unchanged: ValidateScoped with every
// dirty device in scope as a whole. prev must be a complete report (from
// ValidateAll or an earlier delta run) and is not mutated; gen may be nil.
// The spliced report lists its devices in ascending order, as ValidateAll
// does, whatever order prev had them in.
func (v *Validator) ValidateDelta(prev *Report, facts *metadata.Facts, gen *contracts.Generator,
	source fib.Source, dirty []topology.DeviceID) (*Report, error) {
	ds := delta.NewSet()
	ds.AddAll(dirty)
	return v.ValidateScoped(prev, facts, gen, source, ds)
}

// ValidateScoped revalidates a blast radius and splices the fresh results
// into prev, carrying everything else forward unchanged. A device dirty as
// a whole is pulled and checked against all its contracts and its result
// replaces the previous one. A device with a row scope has only the
// contracts re-checked whose verdict can read a row in scope, and the
// fresh verdicts replace the previous ones contract by contract: as runs,
// merged over the scope's positions only, when the sweep has runs (see
// checkRuns), else against only the rows they read (see recheck). The
// spliced report keeps the sorted-by-device order and, per device, contract
// order, so a delta report over an accurate dirty set is byte-identical to
// a from-scratch full sweep under a fixed clock — the determinism invariant
// the equivalence tests lock.
//
// prev must be a complete report over the same device set (from
// ValidateAll or an earlier delta run, which list devices in ascending
// order; any other order is sorted first); it is not mutated, nor are its
// Violations slices. gen may be nil for a transient
// generator, or a shared memoizing generator to amortize contract
// generation across repeated delta validations. A full dirty set
// revalidates every device of facts. Per-device failures degrade as in
// ValidateAll: a failed dirty device keeps its previous result, and the
// error return enumerates the failures.
func (v *Validator) ValidateScoped(prev *Report, facts *metadata.Facts, gen *contracts.Generator,
	source fib.Source, dirty *delta.Set) (*Report, error) {
	if prev == nil {
		return nil, fmt.Errorf("rcdc: ValidateDelta requires a previous report")
	}
	sp := v.Tracer.Start("rcdc.ValidateDelta")
	defer sp.End()
	start := clock.Or(v.Clock).Now()
	if gen == nil {
		gen = v.gen(facts)
	}
	devs := dirty.Devices()
	if dirty.Full() {
		devs = make([]topology.DeviceID, len(facts.Devices))
		for i := range facts.Devices {
			devs[i] = facts.Devices[i].ID
		}
	}
	// The splice base: prev's device reports, ascending by device so that
	// devicePos can search them. Each dirty device's check replaces its own
	// slot, and nothing else reads it.
	base := append([]DeviceReport(nil), prev.Devices...)
	byDevice := func(i, j int) bool { return base[i].Device < base[j].Device }
	if !sort.SliceIsSorted(base, byDevice) {
		sort.SliceStable(base, byDevice)
	}
	sw := v.newSweep(facts, gen, source, true)
	check := func(id topology.DeviceID, prev *DeviceReport, sc delta.Scope, buf *sweepBuf) (DeviceReport, int, error) {
		if sw.runs != nil {
			return sw.checkRuns(id, buf, prev, sc.Rows)
		}
		dc := gen.ForDevice(id)
		if prev != nil && prev.Contracts == len(dc.Contracts) {
			return sw.recheck(dc, prev, sc.Rows, buf)
		}
		rep, err := sw.checkWhole(id, buf)
		return rep, len(dc.Contracts), err
	}
	var (
		checked atomic.Int64
		mu      sync.Mutex
		extra   []DeviceReport // devices prev lacks
		failed  []indexedErr
	)
	bufs := make([]sweepBuf, min(v.workers(), len(devs)))
	par.For(len(devs), len(bufs), func(w, k int) {
		id := devs[k]
		sc, _ := dirty.Scope(id)
		i, ok := devicePos(base, id)
		var prev *DeviceReport
		if ok && !sc.Whole {
			prev = &base[i]
		}
		rep, n, err := check(id, prev, sc, &bufs[w])
		checked.Add(int64(n))
		switch {
		case err != nil:
			mu.Lock()
			failed = append(failed, indexedErr{k, err})
			mu.Unlock()
			return
		case ok:
			base[i] = rep
		default:
			mu.Lock()
			extra = append(extra, rep)
			mu.Unlock()
		}
		bufs[w].busy += rep.Elapsed
	})

	rep := &Report{Workers: v.workers(), Devices: base}
	if len(extra) > 0 {
		rep.Devices = append(rep.Devices, extra...)
		sort.Slice(rep.Devices, func(i, j int) bool { return rep.Devices[i].Device < rep.Devices[j].Device })
	}
	for i := range rep.Devices {
		rep.Checked += rep.Devices[i].Contracts
		rep.Failures += len(rep.Devices[i].Violations)
	}
	rep.Elapsed = clock.Since(v.Clock, start)
	var busy time.Duration
	members := 0
	for i := range bufs {
		busy += bufs[i].busy
		members += bufs[i].members
	}
	v.Metrics.observeRun("delta", rep, len(devs), busy)
	v.Metrics.observeDelta(int(checked.Load()), len(devs)-members)
	slices.SortFunc(failed, func(a, b indexedErr) int { return a.at - b.at })
	errs := make([]error, len(failed))
	for i, f := range failed {
		errs[i] = f.err
	}
	return rep, errors.Join(errs...)
}

// indexedErr is a device check's error with the device's place in the
// checked list, which orders the errors returned.
type indexedErr struct {
	at  int
	err error
}

// Revalidate is the change-driven sweep every layer shares: it brings prev
// — a complete report stamped with the topology generation it reflects — up
// to the topology's current generation, and returns the blast radius it
// planned from (nil without a prev). The journal window since
// prev.Generation gives the radius (delta.Since); a source that is a
// Refresher is refreshed — from the journal, or afresh without a prev; then
// ValidateScoped re-checks the radius and splices — or ValidateAll sweeps
// the fleet, when there is no prev, the journal no longer reaches back to
// it, or the radius is unbounded. The report is stamped with the generation
// read before anything is pulled, ready to be fed back in. gen is passed on
// to ValidateScoped. With a Tracer, it records an rcdc.Revalidate span with
// one child per stage: window (the blast radius), refresh (the source's
// Refresh or RefreshDelta) and check (the sweep, splice included).
func (v *Validator) Revalidate(prev *Report, topo *topology.Topology, facts *metadata.Facts, gen *contracts.Generator,
	source fib.Source, opts delta.Options) (*Report, *delta.Set, error) {
	sp := v.Tracer.Start("rcdc.Revalidate")
	defer sp.End()
	stamp := topo.Generation()
	var ds *delta.Set
	stage := sp.Child("window")
	if prev != nil {
		ds = delta.Since(topo, prev.Generation, opts)
	}
	stage.End()
	stage = sp.Child("refresh")
	if live, ok := source.(Refresher); ok {
		if prev == nil {
			live.Refresh()
		} else {
			live.RefreshDelta()
		}
	}
	stage.End()
	stage = sp.Child("check")
	defer stage.End()
	var rep *Report
	var err error
	if ds == nil || ds.Full() {
		rep, err = v.ValidateAll(facts, source)
	} else {
		rep, err = v.ValidateScoped(prev, facts, gen, source, ds)
	}
	if rep != nil {
		rep.Generation = stamp
	}
	return rep, ds, err
}

// devicePos finds a device in an ascending-by-device report slice: at its
// ID, in a report over every device of a fleet, else by search.
func devicePos(devs []DeviceReport, id topology.DeviceID) (int, bool) {
	if id >= 0 && int(id) < len(devs) && devs[id].Device == id {
		return int(id), true
	}
	i := sort.Search(len(devs), func(i int) bool { return devs[i].Device >= id })
	return i, i < len(devs) && devs[i].Device == id
}

// recheck re-verifies the part of one device a row scope can have moved
// and splices the outcome into the device's previous report, returning it
// with the number of contracts re-checked. It is the scoped check of a
// sweep without runs — the PEC and SMT checkers, sources that hide their
// runs — and the runs path's differential oracle.
//
// Which contracts: see rescoped.
// Those contracts are checked by the configured Checker against a table of
// just the rows they can read (see rows) — through CheckRows if it is a
// RowChecker, so that the fragment never replaces what the checker knows of
// the device.
//
// The fresh violations replace the previous ones of the re-checked
// contracts (see splice).
func (s *sweep) recheck(dc contracts.DeviceContracts, prev *DeviceReport, scope []ipnet.Prefix,
	buf *sweepBuf) (DeviceReport, int, error) {
	v := s.v
	start := clock.Or(v.Clock).Now()
	read, withDefault := rescoped(nil, scope, prev)
	var picked []int // indices into dc.Contracts
	if i, ok := dc.Default(); ok && withDefault {
		picked = append(picked, i)
	}
	for _, p := range read {
		picked = dc.Overlapping(picked, p)
	}
	if len(picked) == 0 {
		return *prev, 0, nil
	}
	sort.Ints(picked)
	var sub []contracts.Contract // the contracts to re-check, in contract order
	read = read[:0]              // now the prefixes whose rows they read
	for k, i := range picked {
		if k > 0 && i == picked[k-1] {
			continue
		}
		c := dc.Contracts[i]
		sub = append(sub, c)
		if c.Kind != contracts.Default {
			read = append(read, c.Prefix)
		}
	}
	tbl, err := s.rows(dc.Device, read, buf)
	if err != nil {
		return DeviceReport{}, 0, err
	}
	check := v.checker().CheckDevice
	if rc, ok := v.checker().(RowChecker); ok {
		check = rc.CheckRows
	}
	fresh, err := check(tbl, contracts.DeviceContracts{Device: dc.Device, Contracts: sub}, prev.Role)
	if err != nil {
		return DeviceReport{}, 0, err
	}
	rep := *prev
	rep.Violations = splice(prev.Violations, fresh, dc.Device, func(c *contracts.Contract) bool {
		_, ok := slices.BinarySearchFunc(sub, c, func(x contracts.Contract, c *contracts.Contract) int { return contractOrder(&x, c) })
		return ok
	})
	rep.Elapsed = clock.Since(v.Clock, start)
	v.Metrics.observeDevice(&rep)
	return rep, len(sub), nil
}

// rows returns the rows of a device's table that contracts on the prefixes
// read — ascending and disjoint, as a row scope's contracts are (a row
// scope implies a flat plan, see delta.Set) — can read: those overlapping
// one of them, and the default row, in table order. A source with runs
// derives them over just the positions from the first prefix's to the
// last's; any other hands over its table.
func (s *sweep) rows(id topology.DeviceID, read []ipnet.Prefix, buf *sweepBuf) (*fib.Table, error) {
	var whole *fib.Table
	if rs, ok := s.source.(RunSource); ok && rs.RunPrefixes() != nil {
		ps := rs.RunPrefixes()
		at := func(i int) ipnet.Prefix { return ps[i].Prefix }
		lo, hi := 0, 0
		if n := len(read); n > 0 {
			lo, _ = ipnet.OverlapRun(len(ps), at, read[0])
			_, hi = ipnet.OverlapRun(len(ps), at, read[n-1])
		}
		buf.pulled = rs.TableRuns(id, lo, hi, buf.pulled)
		whole = buf.pulled.Expand(ps)
	} else {
		var err error
		if whole, err = s.source.Table(id); err != nil {
			return nil, fmt.Errorf("rcdc: pulling table for device %d: %w", id, err)
		}
	}
	tbl := fib.NewTable(id)
	for _, e := range whole.Entries {
		if lo, hi := ipnet.OverlapRun(len(read), func(i int) ipnet.Prefix { return read[i] }, e.Prefix); lo < hi || e.Prefix.IsDefault() {
			tbl.Entries = append(tbl.Entries, e)
		}
	}
	return tbl, nil
}

// rescoped returns what a row scope can have moved on a device whose
// previous report is prev: the verdicts of the contracts overlapping the
// read prefixes, appended to dst, and the default contract's when
// withDefault. A contract's
// verdict reads the rows whose prefix contains or is contained in the
// contract's prefix (the candidate walk of §2.5.2) and nothing else —
// except that a MissingRoute violation reports the next-hop count of the
// default row it falls through to, and the default contract reads the
// default row alone. So the contracts are those overlapping a scoped row,
// plus, when the default row is in scope, the default contract and every
// contract that held a MissingRoute violation (it still does: whether the
// specific rows cover the contract is decided by rows outside the scope,
// which did not move).
func rescoped(dst, scope []ipnet.Prefix, prev *DeviceReport) (read []ipnet.Prefix, withDefault bool) {
	read = dst
	for _, q := range scope {
		if q.IsDefault() {
			withDefault = true
		} else {
			read = append(read, q)
		}
	}
	if withDefault {
		for k := range prev.Violations {
			if v := &prev.Violations[k]; v.Kind == MissingRoute {
				read = append(read, v.Contract.Prefix)
			}
		}
	}
	return read, withDefault
}

// contractOrder orders contracts as a generated set lists them on a flat
// plan: the default contract first, then the specifics by prefix.
func contractOrder(a, b *contracts.Contract) int {
	if a.Kind != b.Kind {
		return int(b.Kind) - int(a.Kind) // Default sorts before Specific
	}
	return a.Prefix.Compare(b.Prefix)
}

// splice merges fresh — the violations of the contracts redone says were
// re-checked, in contract order — with old's violations of every other
// contract, in contract order, into a new slice, relabeling the fresh ones
// to device dev (they may be a class representative's, see checkRuns): old
// and fresh are shared with other reports and never written.
func splice(old, fresh []Violation, dev topology.DeviceID, redone func(*contracts.Contract) bool) []Violation {
	out := make([]Violation, 0, len(old)+len(fresh))
	add := func(v Violation) {
		v.Device, v.Contract.Device = dev, dev
		out = append(out, v)
	}
	for k := range old {
		o := &old[k]
		if redone(&o.Contract) {
			continue
		}
		for len(fresh) > 0 && contractOrder(&fresh[0].Contract, &o.Contract) < 0 {
			add(fresh[0])
			fresh = fresh[1:]
		}
		out = append(out, *o)
	}
	for _, v := range fresh {
		add(v)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
