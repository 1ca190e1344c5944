package monitor

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/clock"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/par"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// Datacenter is one monitored datacenter: its metadata facts, the device
// fleet to pull routing tables from, and (for triage) the live topology
// and device configurations.
type Datacenter struct {
	Name   string
	Topo   *topology.Topology
	Facts  *metadata.Facts
	Source fib.Source
	Cfg    map[topology.DeviceID]*bgp.DeviceConfig
}

// NewDatacenter bundles a topology with its derived facts and a synthesized
// FIB source honoring cfg.
func NewDatacenter(name string, topo *topology.Topology, cfg map[topology.DeviceID]*bgp.DeviceConfig) *Datacenter {
	return &Datacenter{
		Name: name, Topo: topo, Facts: metadata.FromTopology(topo),
		Source: bgp.NewSynth(topo, cfg), Cfg: cfg,
	}
}

// Instance is one horizontally-scaled service instance (§2.6.1): it
// monitors the devices of a set of datacenters, chosen so that the store
// and queue are close to the devices. Production instances watch O(10K)
// devices, any of which may be flaky: pulls are retried with backoff,
// failing devices degrade to carried-forward state instead of vanishing,
// and persistently dead devices are escalated as Unmonitored.
type Instance struct {
	Name        string
	Datacenters []*Datacenter
	Store       *Store
	Queue       *Queue
	Analytics   *Analytics

	// Workers bounds pull/validate parallelism (0 = GOMAXPROCS).
	Workers int
	// Checker selects the per-device verification engine (nil = the
	// prefix-trie checker). dcmon's -engine flag installs the SMT or
	// packet-equivalence-class checker here; all three produce identical
	// verdicts, so the choice only moves the time/space trade-off.
	Checker rcdc.Checker
	// Clock times the real (not modeled) phases of a cycle, e.g.
	// CycleStats.ValidateTime; nil means the system clock. Tests inject
	// a clock.Virtual for reproducible stats.
	Clock clock.Clock
	// SkipUnchanged enables incremental validation: devices whose stored
	// table and contract documents are unchanged since their last
	// validation are skipped and their previous result carried forward.
	SkipUnchanged bool
	// Incremental enables journal-driven delta cycles: after an initial
	// full sweep, each cycle consumes the topology change journal, computes
	// the blast radius of the changes (internal/delta), and pulls/validates
	// only those devices plus any currently failing ones. Every other
	// device's previous result is carried forward. Cycles fall back to a
	// full sweep whenever the blast radius is unbounded or the journal was
	// truncated; FullSweepEvery adds a periodic safety net on top.
	Incremental bool
	// FullSweepEvery forces a full sweep every N cycles while Incremental
	// is set, bounding the damage of any blast-radius underestimate
	// (0 = default 16).
	FullSweepEvery int
	// PullLatencyMin/Max model the 200–800ms per-device routing table
	// fetch of §2.6.1. Latencies are accounted virtually (no sleeping) and
	// reported in CycleStats.ModeledPullTime.
	PullLatencyMin, PullLatencyMax time.Duration

	// MaxPullRetries bounds the retry attempts after a failed pull (a
	// device gets 1+MaxPullRetries attempts per cycle).
	MaxPullRetries int
	// PullRetryBase is the backoff before the first retry; it doubles per
	// retry with deterministic jitter, accounted on the virtual clock.
	PullRetryBase time.Duration
	// PullTimeout is the per-attempt latency budget: an attempt whose
	// modeled latency exceeds it is abandoned (the budget is still spent)
	// and counts as a failure. 0 disables the budget. Raise it alongside
	// PullLatencyMax when using a slower latency model.
	PullTimeout time.Duration
	// MaxConsecutiveFailures marks a device Unmonitored after that many
	// consecutive failed cycles, escalating it to the alert queue
	// (0 = default 3).
	MaxConsecutiveFailures int
	// StaleCycles bounds last-known-good carry-forward: a failing device's
	// previous validation result is re-ingested (flagged stale) for up to
	// this many cycles past its last success (0 = default 3).
	StaleCycles int

	// Metrics, when non-nil, records per-cycle pipeline metrics; Tracer,
	// when non-nil, records a span per cycle with pull/validate children.
	// EnableObservability wires both plus the per-subsystem bundles below.
	Metrics *Metrics
	Tracer  *obs.Tracer

	rcdcM  *rcdc.Metrics  // instruments the per-device validators
	deltaM *delta.Metrics // instruments cyclePlan's blast radii

	rng        *rand.Rand
	cycle      int
	devices    map[deviceKey]*deviceState // per-device health and last result
	pullFailed []DeviceError              // latest pull pass's casualties

	// Incremental-cycle bookkeeping (see cyclePlan / carryForward).
	lastGen        map[string]uint64 // per-DC topology generation at the last cycle's pull
	lastFullSweep  int               // cycle number of the last full sweep
	lastFactsGen   uint64            // summed facts generation at the last contract push
	contractsTotal int               // contract count from the last push
}

// NewInstance creates a service instance with the §2.6.1 default latency
// model and the default fault-tolerance policy.
func NewInstance(name string, dcs ...*Datacenter) *Instance {
	return &Instance{
		Name: name, Datacenters: dcs,
		Store: NewStore(), Queue: NewQueue(), Analytics: NewAnalytics(),
		PullLatencyMin:         200 * time.Millisecond,
		PullLatencyMax:         800 * time.Millisecond,
		MaxPullRetries:         2,
		PullRetryBase:          50 * time.Millisecond,
		PullTimeout:            2 * time.Second,
		MaxConsecutiveFailures: 3,
		StaleCycles:            3,
		rng:                    rand.New(rand.NewSource(1)),
	}
}

func (in *Instance) workers() int {
	if in.Workers > 0 {
		return in.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (in *Instance) maxConsecutive() int {
	if in.MaxConsecutiveFailures > 0 {
		return in.MaxConsecutiveFailures
	}
	return 3
}

func (in *Instance) staleBound() int {
	if in.StaleCycles > 0 {
		return in.StaleCycles
	}
	return 3
}

// CycleStats reports one monitoring cycle.
type CycleStats struct {
	Cycle      int
	Devices    int
	Contracts  int
	Violations int
	// Skipped counts devices whose validation was skipped because their
	// table and contracts were unchanged (SkipUnchanged).
	Skipped int
	// PullFailures counts devices whose table pull failed after
	// exhausting retries this cycle.
	PullFailures int
	// Retries counts pull retry attempts across the fleet.
	Retries int
	// StaleDevices counts devices whose result was carried forward from
	// their last good validation because this cycle's observation failed.
	StaleDevices int
	// Unmonitored counts devices past the consecutive-failure threshold;
	// each is escalated into the alert queue as telemetry loss.
	Unmonitored int
	// FullSweep reports whether this cycle pulled and validated the whole
	// fleet (always true without Incremental; with it, true on the first
	// cycle, on the FullSweepEvery safety net, and on unbounded-blast or
	// journal-truncation fallbacks).
	FullSweep bool
	// DirtyDevices counts the devices scheduled for revalidation this
	// cycle: the blast radius of the journaled changes plus currently
	// failing devices (equals Devices on a full sweep).
	DirtyDevices int
	// CarriedForward counts devices outside the dirty set whose previous
	// result was re-ingested unchanged (Incremental cycles only).
	CarriedForward int
	// ModeledPullTime is the wall time the table pulls would take given
	// the per-device fetch latency model (including failed attempts and
	// retry backoff) and the worker parallelism.
	ModeledPullTime time.Duration
	// ValidateTime is the actual CPU-side validation wall time.
	ValidateTime time.Duration
	// Errs enumerates every per-device and per-message failure of the
	// cycle. The cycle degrades gracefully instead of aborting: RunCycle
	// only returns an error for faults that stop the whole pipeline.
	Errs []error
}

// Err joins the cycle's accumulated per-device errors (nil when clean).
func (s *CycleStats) Err() error { return errors.Join(s.Errs...) }

// document types persisted in the store.

type contractDoc struct {
	Kind     contracts.Kind      `json:"kind"`
	Prefix   string              `json:"prefix"`
	NextHops []topology.DeviceID `json:"nextHops"`
}

type tableDoc struct {
	Entries []entryDoc `json:"entries"`
}

type entryDoc struct {
	Prefix    string              `json:"prefix"`
	NextHops  []topology.DeviceID `json:"nextHops,omitempty"`
	Connected bool                `json:"connected,omitempty"`
}

// GenerateContracts is the device contract generator micro-service: it
// consumes metadata facts, generates the comprehensive contract set for
// each device, and pushes them to the store.
func (in *Instance) GenerateContracts() (int, error) {
	total := 0
	for _, dc := range in.Datacenters {
		gen := contracts.NewGenerator(dc.Facts)
		for i := range dc.Facts.Devices {
			id := dc.Facts.Devices[i].ID
			set := gen.ForDevice(id)
			docs := make([]contractDoc, len(set.Contracts))
			for j, c := range set.Contracts {
				docs[j] = contractDoc{Kind: c.Kind, Prefix: c.Prefix.String(), NextHops: c.NextHops}
			}
			raw, err := json.Marshal(docs)
			if err != nil {
				return total, err
			}
			in.Store.Put("contracts", contractsKey(dc.Name, int32(id)), raw)
			total += len(docs)
		}
	}
	return total, nil
}

// refresher is implemented by FIB sources whose derived state must be
// recomputed from live topology before a pull cycle (e.g. bgp.Synth).
type refresher interface{ Refresh() }

// pullDelayer is implemented by fault-injecting sources that add modeled
// latency to a pull attempt (slow-pull injection); the puller adds it to
// the sampled fetch latency on the virtual clock.
type pullDelayer interface {
	LastPullDelay(topology.DeviceID) time.Duration
}

// docCorrupter is implemented by fault-injecting sources that corrupt a
// marshaled table document between serialization and the store write.
type docCorrupter interface {
	CorruptDoc(topology.DeviceID, []byte) ([]byte, bool)
}

// PullStats reports one pass of the routing table puller.
type PullStats struct {
	// Modeled is the virtual wall time of the pass: the makespan of the
	// per-device attempt latencies — failed attempts and retry backoff
	// included — over the worker pool.
	Modeled time.Duration
	// Retries counts retry attempts across all devices.
	Retries int
	// Failed lists devices whose pull failed after exhausting retries;
	// their previous store documents are left in place and flagged stale
	// by the validator rather than silently reused.
	Failed []DeviceError
}

// PullTables is the routing table puller micro-service: it fetches every
// device's routing table with retry/backoff, stores it, and posts a
// notification to the queue. Fetch latency is sampled per device and
// accounted virtually. The returned error aggregates every device that
// failed after retries (also listed in PullStats.Failed); the pass itself
// always completes.
func (in *Instance) PullTables() (PullStats, error) {
	return in.pullDevices(in.fleet())
}

// target is one device a pass works on. Passes take their targets in
// dispatch order: datacenter, then ascending device.
type target struct {
	dc  *Datacenter
	dev topology.DeviceID
}

// fleet lists every device of every datacenter in dispatch order.
func (in *Instance) fleet() []target {
	var out []target
	for _, dc := range in.Datacenters {
		for i := range dc.Facts.Devices {
			out = append(out, target{dc, dc.Facts.Devices[i].ID})
		}
	}
	return out
}

// pullDevices runs one pull pass over targets. Sources are always
// refreshed — derived converged state is cheap to recompute and must
// reflect the live topology even for devices outside the pass.
func (in *Instance) pullDevices(targets []target) (PullStats, error) {
	for _, dc := range in.Datacenters {
		if r, ok := dc.Source.(refresher); ok {
			r.Refresh()
		}
	}
	// Pre-seed a per-device RNG in dispatch order: every latency and jitter
	// draw is then independent of worker scheduling, so ModeledPullTime is
	// deterministic across runs for identical seeds.
	rngs := make([]*rand.Rand, len(targets))
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(in.rng.Int63()))
	}
	times := make([]time.Duration, len(targets))
	retries := make([]int, len(targets))
	fails := make([]error, len(targets))
	par.For(len(targets), in.workers(), func(_, i int) {
		times[i], retries[i], fails[i] = in.pullOne(targets[i].dc, targets[i].dev, rngs[i])
	})

	var ps PullStats
	var errs []error
	for i, t := range targets {
		ps.Retries += retries[i]
		if fails[i] != nil {
			de := DeviceError{Datacenter: t.dc.Name, Device: t.dev, Err: fails[i]}
			ps.Failed = append(ps.Failed, de)
			errs = append(errs, de)
			continue
		}
		in.Queue.Push(fmt.Sprintf("%s/%d", t.dc.Name, t.dev))
	}
	// The modeled wall time is the makespan of the per-device pull times
	// over the worker pool (greedy least-loaded assignment in dispatch
	// order), independent of actual goroutine scheduling.
	busy := make([]time.Duration, in.workers())
	for _, t := range times {
		least := 0
		for w := 1; w < len(busy); w++ {
			if busy[w] < busy[least] {
				least = w
			}
		}
		busy[least] += t
	}
	for _, b := range busy {
		if b > ps.Modeled {
			ps.Modeled = b
		}
	}
	in.pullFailed = ps.Failed
	return ps, errors.Join(errs...)
}

// pullOne fetches one device's table under the virtual latency model,
// retrying with exponential backoff + jitter, and stores the document on
// success (pullDevices posts the notification, in dispatch order). It
// returns the modeled time spent (every attempt and backoff counts,
// succeeded or not) and the retry count.
func (in *Instance) pullOne(dc *Datacenter, dev topology.DeviceID, rng *rand.Rand) (spent time.Duration, retried int, err error) {
	for attempt := 0; ; attempt++ {
		lat := in.PullLatencyMin
		if span := in.PullLatencyMax - in.PullLatencyMin; span > 0 {
			lat += time.Duration(rng.Int63n(int64(span)))
		}
		var tbl *fib.Table
		tbl, err = dc.Source.Table(dev)
		if d, ok := dc.Source.(pullDelayer); ok {
			lat += d.LastPullDelay(dev)
		}
		if in.PullTimeout > 0 && lat > in.PullTimeout {
			// The attempt is abandoned at the budget; the budget is spent.
			lat = in.PullTimeout
			if err == nil {
				err = fmt.Errorf("monitor: pull of %s/%d timed out after %v", dc.Name, dev, in.PullTimeout)
			}
		}
		spent += lat
		if err == nil {
			err = in.storeTable(dc, dev, tbl)
		}
		if err == nil {
			return spent, retried, nil
		}
		if attempt >= in.MaxPullRetries {
			return spent, retried, err
		}
		back := in.PullRetryBase << attempt
		if back > 0 {
			back += time.Duration(rng.Int63n(int64(back)/2 + 1))
		}
		spent += back
		retried++
	}
}

// storeTable serializes a pulled table into the store.
func (in *Instance) storeTable(dc *Datacenter, dev topology.DeviceID, tbl *fib.Table) error {
	doc := tableDoc{}
	for _, e := range tbl.Entries {
		doc.Entries = append(doc.Entries, entryDoc{
			Prefix: e.Prefix.String(), NextHops: e.NextHops, Connected: e.Connected,
		})
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if c, ok := dc.Source.(docCorrupter); ok {
		if bad, did := c.CorruptDoc(dev, raw); did {
			raw = bad
		}
	}
	in.Store.Put("tables", tableKey(dc.Name, int32(dev)), raw)
	return nil
}

// ValidateStats reports one pass of the routing table validator.
type ValidateStats struct {
	Devices, Violations, Skipped int
	// Stale counts devices validated by carrying the last-known-good
	// result forward after a failed observation.
	Stale int
	// Unmonitored counts devices past the consecutive-failure threshold.
	Unmonitored int
	// Errs enumerates every per-message and per-device failure.
	Errs []error
}

// ValidateQueued is the routing table validator micro-service: it drains
// the notification queue completely, loads each device's table and
// contracts from the store, validates them, and pushes the results to the
// analytics stream in dispatch order (datacenter, then ascending device),
// whatever order the notifications arrived in. Malformed messages and
// per-device failures (missing or corrupt documents) are recorded and the
// rest keeps validating; failed devices fall back to their last-known-good
// result (flagged stale) and are escalated as Unmonitored once persistently
// failing. With SkipUnchanged set, devices whose documents hash
// identically to their last validated state are skipped and the previous
// result carried forward (re-ingested under the current cycle). Devices
// reported failed by the preceding PullTables pass are accounted here too,
// so they never silently vanish from the cycle.
func (in *Instance) ValidateQueued() (ValidateStats, error) {
	dcIndex := make(map[string]int, len(in.Datacenters))
	for i, dc := range in.Datacenters {
		dcIndex[dc.Name] = i
	}
	var vs ValidateStats
	var msgs []target
	// Drain the queue fully even past malformed messages: a partial drain
	// would leak messages into the next cycle and double-count devices.
	for {
		m, ok := in.Queue.Pop()
		if !ok {
			break
		}
		i := strings.LastIndexByte(m, '/')
		if i < 0 {
			vs.Errs = append(vs.Errs, fmt.Errorf("monitor: bad message %q", m))
			continue
		}
		dev, err := strconv.Atoi(m[i+1:])
		if err != nil {
			vs.Errs = append(vs.Errs, fmt.Errorf("monitor: bad message %q", m))
			continue
		}
		di, ok := dcIndex[m[:i]]
		if !ok {
			vs.Errs = append(vs.Errs, fmt.Errorf("monitor: unknown datacenter %q", m[:i]))
			continue
		}
		msgs = append(msgs, target{in.Datacenters[di], topology.DeviceID(dev)})
	}
	sort.SliceStable(msgs, func(a, b int) bool {
		if da, db := dcIndex[msgs[a].dc.Name], dcIndex[msgs[b].dc.Name]; da != db {
			return da < db
		}
		return msgs[a].dev < msgs[b].dev
	})

	// Checks only read instance state, so they run in parallel; their
	// effects (health, analytics, the last result) apply below, in order.
	out := make([]checked, len(msgs))
	par.For(len(msgs), in.workers(), func(_, i int) {
		out[i] = in.check(msgs[i])
	})
	for i, m := range msgs {
		c := &out[i]
		if c.err != nil {
			in.noteFailure(&vs, m.dc.Name, m.dev, c.err)
			continue
		}
		d := in.state(m.dc.Name, m.dev)
		vs.Devices++
		if c.skip {
			vs.Skipped++
			vs.Violations += in.carry(d, false)
		} else {
			vs.Violations += len(c.rec.Violations)
			in.Analytics.Ingest(c.rec)
			d.last, d.hash, d.validated = c.rec, c.hash, true
		}
		in.noteSuccess(d)
	}
	// Devices whose pull failed were never queued: account them here so
	// they don't silently drop out of the cycle.
	for _, f := range in.pullFailed {
		in.noteFailure(&vs, f.Datacenter, f.Device, f)
	}
	in.pullFailed = nil
	return vs, errors.Join(vs.Errs...)
}

// checked is one device's outcome of a validate pass: a fresh record and
// the hash of the documents it read, a skip (its last result still
// holds), or the error that failed it.
type checked struct {
	rec  Record
	hash uint64
	skip bool
	err  error
}

// check loads one device's documents from the store and validates them,
// unless SkipUnchanged finds them hashing equal to its last result's.
func (in *Instance) check(t target) checked {
	rawT, okT := in.Store.Get("tables", tableKey(t.dc.Name, int32(t.dev)))
	rawC, okC := in.Store.Get("contracts", contractsKey(t.dc.Name, int32(t.dev)))
	if !okT || !okC {
		return checked{err: fmt.Errorf("monitor: missing documents for %s/%d", t.dc.Name, t.dev)}
	}
	h := hashDocs(rawT, rawC)
	if d := in.devices[deviceKey{t.dc.Name, t.dev}]; in.SkipUnchanged && d != nil && d.validated && d.hash == h {
		return checked{skip: true}
	}
	rep, err := in.validateDocs(t.dc, t.dev, rawT, rawC)
	if err != nil {
		return checked{err: fmt.Errorf("monitor: validate %s/%d: %w", t.dc.Name, t.dev, err)}
	}
	return checked{hash: h, rec: Record{
		Cycle: in.cycle, Datacenter: t.dc.Name, Device: t.dev,
		Name: rep.Name, Role: rep.Role, Violations: rep.Violations,
	}}
}

func (in *Instance) validateDocs(dc *Datacenter, dev topology.DeviceID, rawT, rawC []byte) (rcdc.DeviceReport, error) {
	var tdoc tableDoc
	if err := json.Unmarshal(rawT, &tdoc); err != nil {
		return rcdc.DeviceReport{}, err
	}
	var cdocs []contractDoc
	if err := json.Unmarshal(rawC, &cdocs); err != nil {
		return rcdc.DeviceReport{}, err
	}
	tbl := fib.NewTable(dev)
	for _, e := range tdoc.Entries {
		p, err := ipnet.ParsePrefix(e.Prefix)
		if err != nil {
			return rcdc.DeviceReport{}, err
		}
		tbl.Add(fib.Entry{Prefix: p, NextHops: e.NextHops, Connected: e.Connected})
	}
	set := contracts.DeviceContracts{Device: dev}
	for _, d := range cdocs {
		p, err := ipnet.ParsePrefix(d.Prefix)
		if err != nil {
			return rcdc.DeviceReport{}, err
		}
		set.Contracts = append(set.Contracts, contracts.Contract{
			Device: dev, Kind: d.Kind, Prefix: p, NextHops: d.NextHops,
		})
	}
	v := rcdc.Validator{Checker: in.Checker, Workers: 1, Clock: in.Clock, Metrics: in.rcdcM}
	return v.ValidateDevice(dc.Facts, tbl, set)
}

// RunCycle performs one monitoring cycle: regenerate contracts if the
// intent changed, pull and validate either the whole fleet (full sweep)
// or, with Incremental set, just the blast radius of the topology changes
// journaled since the previous cycle — every untouched device's previous
// result is carried forward, so the cycle still accounts for the full
// fleet. Per-device failures degrade the cycle (stale carry-forward,
// Unmonitored escalation) and are enumerated in CycleStats.Errs; the
// returned error is reserved for faults that stop the pipeline itself.
func (in *Instance) RunCycle() (CycleStats, error) {
	in.cycle++
	sp := in.Tracer.Start("monitor.RunCycle")
	defer sp.End()
	sp.SetAttr("cycle", strconv.Itoa(in.cycle))
	cycleStart := clock.Or(in.Clock).Now()
	stats := CycleStats{Cycle: in.cycle}
	plan, full := in.cyclePlan()
	stats.FullSweep = full

	// Contracts derive from intent, not link state: regenerate only when
	// some datacenter's facts changed (or on the first push).
	factsGen := uint64(0)
	for _, dc := range in.Datacenters {
		factsGen += dc.Facts.Generation()
	}
	if in.contractsTotal == 0 || factsGen != in.lastFactsGen {
		n, err := in.GenerateContracts()
		if err != nil {
			return stats, err
		}
		in.contractsTotal = n
		in.lastFactsGen = factsGen
	}
	stats.Contracts = in.contractsTotal

	// Snapshot generations before pulling: a change that lands mid-cycle
	// may or may not be visible to this cycle's pulls, but it stays in the
	// next cycle's journal window either way (at-least-once revalidation).
	gens := make(map[string]uint64, len(in.Datacenters))
	for _, dc := range in.Datacenters {
		gens[dc.Name] = dc.Topo.Generation()
	}
	pullSp := sp.Child("monitor.pull")
	ps, _ := in.pullDevices(plan)
	pullSp.End()
	stats.ModeledPullTime = ps.Modeled
	stats.Retries = ps.Retries
	stats.PullFailures = len(ps.Failed)
	start := clock.Or(in.Clock).Now()
	valSp := sp.Child("monitor.validate")
	vs, _ := in.ValidateQueued()
	valSp.End()
	stats.Devices = vs.Devices
	stats.Violations = vs.Violations
	stats.Skipped = vs.Skipped
	stats.StaleDevices = vs.Stale
	stats.Unmonitored = vs.Unmonitored
	stats.Errs = vs.Errs
	stats.DirtyDevices = len(plan)
	if !full {
		in.carryForward(&stats, plan)
	}
	stats.ValidateTime = clock.Since(in.Clock, start)
	in.lastGen = gens
	if full {
		in.lastFullSweep = in.cycle
	}
	in.Metrics.observeCycle(&stats, clock.Since(in.Clock, cycleStart))
	return stats, nil
}
