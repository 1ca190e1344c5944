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
	// contract sets — one of the two ingredients of the zero-allocation
	// steady state the -benchmem gate locks.
	Contracts *contracts.Generator
	// Scratch, when non-nil and Workers is 1, switches ValidateAll to a
	// sequential path that reuses the scratch's backing arrays instead of
	// spinning up the channel worker pool: allocation-free once warm. The
	// returned report and its device slice are views into the scratch,
	// valid only until the next ValidateAll on the same validator.
	Scratch *Scratch
}

// Scratch holds the reusable backing arrays of the sequential
// ValidateAll path. One scratch serves one validator at a time.
type Scratch struct {
	reps []DeviceReport
	errs []error
	rep  Report
}

func (v *Validator) checker() Checker {
	if v.Checker != nil {
		return v.Checker
	}
	return TrieChecker{}
}

// ValidateDevice checks one device's table against its contracts.
func (v *Validator) ValidateDevice(facts *metadata.Facts, tbl *fib.Table, dc contracts.DeviceContracts) (DeviceReport, error) {
	return v.validateDevice(facts, tbl, dc, clock.Or(v.Clock).Now(), len(dc.Contracts))
}

// validateDevice is ValidateDevice for a check that began at start and
// stands for n contracts: dc may be the part of them left to check.
func (v *Validator) validateDevice(facts *metadata.Facts, tbl *fib.Table, dc contracts.DeviceContracts, start time.Time, n int) (DeviceReport, error) {
	df := facts.Device(dc.Device)
	viols, err := v.checker().CheckDevice(tbl, dc, df.Role)
	if err != nil {
		return DeviceReport{}, err
	}
	rep := DeviceReport{
		Device: dc.Device, Name: df.Name, Role: df.Role,
		Contracts: n, Violations: viols,
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

// RowSource is a fib.Source that can also answer a row query: the rows of
// one device's table whose prefix contains or is contained in one of the
// given prefixes, plus the default row, in table order — without handing
// over (or copying) the whole table. Those rows are all a contract on one
// of the prefixes reads, which is what lets ValidateScoped re-check a
// handful of contracts on a device with a row scope. Entries returned are
// read-only.
type RowSource interface {
	fib.Source
	Rows(dev topology.DeviceID, overlapping []ipnet.Prefix) ([]fib.Entry, error)
}

// Refresher is implemented by a fib.Source that follows the live topology
// (bgp.Synth, the shard coordinator): RefreshDelta brings it up to the
// current generation, given the blast radius ds of the changes journaled
// after generation since — or nil, and the source reads the journal itself.
type Refresher interface {
	RefreshDelta(ds *delta.Set, since uint64)
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
}

// sweepBuf is one worker's buffers, reused from device to device: nothing
// checked keeps them (violations hold copies).
type sweepBuf struct {
	contracts    []contracts.Contract
	contractRuns []contracts.Run
	tableRuns    []fib.Run
	rows         []fib.Entry
	marks        []span
	spans        []span
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

// validateSet runs the worker pool over one device set, producing each
// device's report with check, which is also handed buffers that belong to
// the worker calling it. It returns the per-device reports in ascending
// device order together with every per-device error (the two are
// disjoint: an errored device produces no report).
func (v *Validator) validateSet(devs []topology.DeviceID, check func(topology.DeviceID, *sweepBuf) (DeviceReport, error)) ([]DeviceReport, []error) {
	type result struct {
		rep DeviceReport
		err error
	}
	ids := make(chan topology.DeviceID)
	results := make(chan result)
	var wg sync.WaitGroup
	for w := 0; w < v.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf sweepBuf
			for id := range ids {
				rep, err := check(id, &buf)
				results <- result{rep: rep, err: err}
			}
		}()
	}
	go func() {
		for _, id := range devs {
			ids <- id
		}
		close(ids)
		wg.Wait()
		close(results)
	}()

	var reps []DeviceReport
	var errs []error
	for r := range results {
		if r.err != nil {
			errs = append(errs, r.err)
			continue
		}
		reps = append(reps, r.rep)
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].Device < reps[j].Device })
	return reps, errs
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
	if v.Scratch != nil && v.workers() == 1 {
		return v.validateAllSeq(facts, source)
	}
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

// validateAllSeq is the sequential twin of ValidateAll for Workers==1
// with a Scratch: no channels, no goroutines, no per-run slices. Device
// results land directly in scratch order — facts.Devices is ascending by
// ID, so the report order matches the worker-pool path's sorted order
// and the two paths stay byte-identical (the sort below only runs for
// sources that renumber devices).
func (v *Validator) validateAllSeq(facts *metadata.Facts, source fib.Source) (*Report, error) {
	start := clock.Or(v.Clock).Now()
	gen := v.gen(facts)
	s := v.Scratch
	s.reps = s.reps[:0]
	s.errs = s.errs[:0]
	sorted := true
	for i := range facts.Devices {
		id := facts.Devices[i].ID
		tbl, err := source.Table(id)
		if err != nil {
			s.errs = append(s.errs, fmt.Errorf("rcdc: pulling table for device %d: %w", id, err))
			continue
		}
		dr, err := v.ValidateDevice(facts, tbl, gen.ForDevice(id))
		if err != nil {
			s.errs = append(s.errs, err)
			continue
		}
		if n := len(s.reps); n > 0 && s.reps[n-1].Device > dr.Device {
			sorted = false
		}
		s.reps = append(s.reps, dr)
	}
	if !sorted {
		sort.Slice(s.reps, func(i, j int) bool { return s.reps[i].Device < s.reps[j].Device })
	}
	rep := &s.rep
	*rep = Report{Workers: 1, Devices: s.reps}
	for i := range s.reps {
		rep.Checked += s.reps[i].Contracts
		rep.Failures += len(s.reps[i].Violations)
	}
	rep.Elapsed = clock.Since(v.Clock, start)
	v.Metrics.observeRun("full", rep, len(facts.Devices), busyTime(s.reps))
	return rep, errors.Join(s.errs...)
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
// checkRuns), else — when source can answer row queries — against only
// the rows in scope (see recheck). The
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
	// devicePos can search them. Nothing writes it until the checks are done.
	base := append([]DeviceReport(nil), prev.Devices...)
	byDevice := func(i, j int) bool { return base[i].Device < base[j].Device }
	if !sort.SliceIsSorted(base, byDevice) {
		sort.SliceStable(base, byDevice)
	}
	rows, _ := source.(RowSource)
	sw := v.newSweep(facts, gen, source, true)
	var checked atomic.Int64
	fresh, errs := v.validateSet(devs, func(id topology.DeviceID, buf *sweepBuf) (DeviceReport, error) {
		sc, _ := dirty.Scope(id)
		var prev *DeviceReport
		if i, ok := devicePos(base, id); ok && !sc.Whole {
			prev = &base[i]
		}
		if sw.runs != nil {
			rep, n, err := sw.checkRuns(id, buf, prev, sc.Rows)
			checked.Add(int64(n))
			return rep, err
		}
		dc := gen.ForDevice(id)
		if prev != nil && rows != nil && prev.Contracts == len(dc.Contracts) {
			rep, n, err := v.recheck(rows, dc, prev, sc.Rows)
			checked.Add(int64(n))
			return rep, err
		}
		checked.Add(int64(len(dc.Contracts)))
		return sw.checkWhole(id, buf)
	})

	rep := &Report{Workers: v.workers(), Devices: base}
	for _, fr := range fresh {
		if i, ok := devicePos(base, fr.Device); ok {
			rep.Devices[i] = fr
		} else {
			rep.Devices = append(rep.Devices, fr)
		}
	}
	if len(rep.Devices) > len(base) {
		sort.Slice(rep.Devices, func(i, j int) bool { return rep.Devices[i].Device < rep.Devices[j].Device })
	}
	for i := range rep.Devices {
		rep.Checked += rep.Devices[i].Contracts
		rep.Failures += len(rep.Devices[i].Violations)
	}
	rep.Elapsed = clock.Since(v.Clock, start)
	v.Metrics.observeRun("delta", rep, len(devs), busyTime(fresh))
	v.Metrics.observeRecheck(int(checked.Load()))
	return rep, errors.Join(errs...)
}

// Revalidate is the change-driven sweep every layer shares: it brings prev
// — a complete report stamped with the topology generation it reflects — up
// to the topology's current generation, and returns the blast radius it
// planned from (nil without a prev). The journal window since
// prev.Generation gives the radius (delta.Since); a source that is a
// Refresher is refreshed with it; a RowChecker forgets the dirty devices; then
// ValidateScoped re-checks the radius and splices — or ValidateAll sweeps
// the fleet, when there is no prev, the journal no longer reaches back to
// it, or the radius is unbounded. The report is stamped with the generation
// read before anything is pulled, ready to be fed back in. gen is passed on
// to ValidateScoped.
func (v *Validator) Revalidate(prev *Report, topo *topology.Topology, facts *metadata.Facts, gen *contracts.Generator,
	source fib.Source, opts delta.Options) (*Report, *delta.Set, error) {
	stamp := topo.Generation()
	var ds *delta.Set
	var since uint64
	if prev != nil {
		since = prev.Generation
		ds = delta.Since(topo, since, opts)
	}
	if live, ok := source.(Refresher); ok {
		live.RefreshDelta(ds, since)
	}
	var rep *Report
	var err error
	if ds == nil || ds.Full() {
		rep, err = v.ValidateAll(facts, source)
	} else {
		if rc, ok := v.checker().(RowChecker); ok {
			rc.Invalidate(ds.Devices())
		}
		rep, err = v.ValidateScoped(prev, facts, gen, source, ds)
	}
	if rep != nil {
		rep.Generation = stamp
	}
	return rep, ds, err
}

// devicePos finds a device in an ascending-by-device report slice.
func devicePos(devs []DeviceReport, id topology.DeviceID) (int, bool) {
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
// just the rows they can read — through CheckRows if it is a RowChecker, so
// that the fragment never replaces what the checker knows of the device.
//
// The fresh violations replace the previous ones of the re-checked
// contracts (see splice).
func (v *Validator) recheck(source RowSource, dc contracts.DeviceContracts,
	prev *DeviceReport, scope []ipnet.Prefix) (DeviceReport, int, error) {
	start := clock.Or(v.Clock).Now()
	read, withDefault := rescoped(scope, prev)
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
	entries, err := source.Rows(dc.Device, read)
	if err != nil {
		return DeviceReport{}, 0, fmt.Errorf("rcdc: pulling rows for device %d: %w", dc.Device, err)
	}
	tbl := fib.NewTable(dc.Device)
	tbl.Entries = entries
	check := v.checker().CheckDevice
	if rc, ok := v.checker().(RowChecker); ok {
		check = rc.CheckRows
	}
	fresh, err := check(tbl, contracts.DeviceContracts{Device: dc.Device, Contracts: sub}, prev.Role)
	if err != nil {
		return DeviceReport{}, 0, err
	}
	rep := *prev
	rep.Violations = splice(prev.Violations, fresh, func(c *contracts.Contract) bool {
		_, ok := slices.BinarySearchFunc(sub, c, func(x contracts.Contract, c *contracts.Contract) int { return contractOrder(&x, c) })
		return ok
	})
	rep.Elapsed = clock.Since(v.Clock, start)
	v.Metrics.observeDevice(&rep)
	return rep, len(sub), nil
}

// rescoped returns what a row scope can have moved on a device whose
// previous report is prev: the verdicts of the contracts overlapping the
// read prefixes, and the default contract's when withDefault. A contract's
// verdict reads the rows whose prefix contains or is contained in the
// contract's prefix (the candidate walk of §2.5.2) and nothing else —
// except that a MissingRoute violation reports the next-hop count of the
// default row it falls through to, and the default contract reads the
// default row alone. So the contracts are those overlapping a scoped row,
// plus, when the default row is in scope, the default contract and every
// contract that held a MissingRoute violation (it still does: whether the
// specific rows cover the contract is decided by rows outside the scope,
// which did not move).
func rescoped(scope []ipnet.Prefix, prev *DeviceReport) (read []ipnet.Prefix, withDefault bool) {
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
// contract, in contract order, into a new slice: old is shared with
// earlier reports and never written.
func splice(old, fresh []Violation, redone func(*contracts.Contract) bool) []Violation {
	out := make([]Violation, 0, len(old)+len(fresh))
	for k := range old {
		o := &old[k]
		if redone(&o.Contract) {
			continue
		}
		for len(fresh) > 0 && contractOrder(&fresh[0].Contract, &o.Contract) < 0 {
			out, fresh = append(out, fresh[0]), fresh[1:]
		}
		out = append(out, *o)
	}
	if out = append(out, fresh...); len(out) == 0 {
		return nil
	}
	return out
}
