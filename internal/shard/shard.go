package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/clock"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/pec"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// Options configures a Coordinator.
type Options struct {
	// SMT selects the bit-vector engine; Exact the exact-ECMP semantics.
	// Defaults match the engine's defaults (trie, subset semantics), so a
	// default coordinator is byte-equivalent to a default single sweep.
	SMT, Exact bool
	// PEC selects the packet-equivalence-class engine (internal/pec) and
	// wins over SMT when both are set. The coordinator owns one
	// persistent checker shared by all shards, so per-device atomization
	// caches amortize across sweeps and delta passes invalidate exactly
	// the dirty devices.
	PEC bool
	// PECMetrics, when non-nil, instruments the PEC checker.
	PECMetrics *pec.Metrics
	// Workers is the stealing-pool size; 0 means one worker per shard.
	Workers int
	// Replicas is the virtual-node count per shard on the hash ring; 0
	// means the package default.
	Replicas int
	// Clock times sweeps; nil means the system clock.
	Clock clock.Clock
	// Metrics, when non-nil, receives coordinator counters.
	Metrics *Metrics
	// DeltaMetrics, when non-nil, instruments blast-radius computations.
	DeltaMetrics *delta.Metrics
}

// shardState is one validator shard: its slice of the fleet (ascending
// device order) and its own generation-cached FIB source. The source is
// mutex-guarded, so a thief worker can validate this shard's devices
// through it concurrently with the owner.
type shardState struct {
	devices []topology.DeviceID
	synth   *bgp.Synth
}

// Coordinator partitions the fleet across N validator shards by
// consistent hashing over the Clos pod structure — whole pods (and spine
// planes, and regional spines) land on one shard, preserving the table
// locality the per-shard FIB caches exploit — and sweeps them with a
// work-stealing pool. Merged reports are cached keyed on the topology
// generation: a steady-state repeat Sweep is an O(1) hit, and after a
// bounded change only the blast radius revalidates, on whichever shards
// it touches.
//
// Coordinator implements the engine's Sweeper hook. It is safe for
// concurrent use.
type Coordinator struct {
	topo  *topology.Topology
	cfg   map[topology.DeviceID]*bgp.DeviceConfig
	opts  Options
	ring  *Ring
	facts *metadata.Facts
	cgen  *contracts.Generator

	// pec is shared by every shard (non-nil iff Options.PEC): the
	// checker is safe for concurrent CheckDevice calls, and one
	// fleet-wide instance means the shared atom arena dedupes shapes
	// across shard boundaries — a ToR's shape built by shard 0 is a
	// ShapeHit for the clone validated by shard 3.
	shards []*shardState
	pec    *pec.Checker

	mu     sync.Mutex
	merged *rcdc.Report // last merge, keyed by merged.Generation
}

// New builds a coordinator of n shards over the topology and config map.
// The config map is shared with the caller (the engine mutates it under
// its own lock; sweeps observe it through the journaled generation).
func New(topo *topology.Topology, cfg map[topology.DeviceID]*bgp.DeviceConfig, n int, opts Options) *Coordinator {
	c := &Coordinator{
		topo: topo, cfg: cfg, opts: opts,
		ring:  NewRing(n, opts.Replicas),
		facts: metadata.FromTopology(topo),
	}
	c.cgen = contracts.NewGenerator(c.facts)
	c.cgen.EnableMemo()
	if opts.PEC {
		c.pec = &pec.Checker{Exact: opts.Exact, Clock: opts.Clock, Metrics: opts.PECMetrics}
	}
	c.shards = make([]*shardState, c.ring.Shards())
	for i := range c.shards {
		synth := bgp.NewSynth(topo, cfg)
		synth.EnableTableCache()
		c.shards[i] = &shardState{synth: synth}
	}
	for i := range topo.Devices {
		d := &topo.Devices[i]
		s := c.ring.Shard(PartitionKey(d))
		c.shards[s].devices = append(c.shards[s].devices, d.ID)
	}
	for i, s := range c.shards {
		opts.Metrics.observeAssignment(i, len(s.devices))
	}
	return c
}

// PartitionKey returns the ring key a device is placed by: its pod for
// ToRs and leaves, its plane for spines, its index for regional spines.
// Hashing structural units instead of devices keeps each pod's FIBs —
// which share most of their routes — on one shard's table cache.
func PartitionKey(d *topology.Device) string {
	switch d.Role {
	case topology.RoleToR, topology.RoleLeaf:
		return fmt.Sprintf("pod-%d", d.Cluster)
	case topology.RoleSpine:
		return fmt.Sprintf("plane-%d", d.Plane)
	default:
		return fmt.Sprintf("rs-%d", d.Index)
	}
}

// Shards returns the partition width (the engine.Sweeper hook).
func (c *Coordinator) Shards() int { return c.ring.Shards() }

// Devices returns shard i's slice of the fleet in ascending device order.
func (c *Coordinator) Devices(i int) []topology.DeviceID {
	return append([]topology.DeviceID(nil), c.shards[i].devices...)
}

func (c *Coordinator) checker() rcdc.Checker {
	switch {
	case c.pec != nil:
		return c.pec
	case c.opts.SMT:
		return rcdc.SMTChecker{Exact: c.opts.Exact}
	}
	return rcdc.TrieChecker{Exact: c.opts.Exact}
}

func (c *Coordinator) workers() int {
	if c.opts.Workers > 0 {
		return c.opts.Workers
	}
	return len(c.shards)
}

// Sweep produces a complete fleet report for the current topology
// generation (the engine.Sweeper hook). Repeat sweeps at an unchanged
// generation return the cached merge; after journaled changes only the
// blast radius revalidates; otherwise every shard sweeps in full. The
// merged report renders byte-identically to a single-engine sweep of the
// same state: per-device results are content-equal, ascending by device,
// with Checked/Failures recomputed from the merge.
func (c *Coordinator) Sweep() (*rcdc.Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := clock.Or(c.opts.Clock).Now()
	gen := c.topo.Generation()
	if c.merged != nil && c.merged.Generation == gen {
		c.opts.Metrics.observeSweep("cached", 0)
		return c.merged, nil
	}
	mode := "full"
	var dirty []topology.DeviceID
	// ds is shared with every shard's table cache below; nil (no previous
	// merge, or a truncated journal) leaves each cache to its own journal.
	var ds *delta.Set
	var since uint64
	if c.merged != nil {
		since = c.merged.Generation
		if changes, ok := c.topo.ChangesSince(since); ok {
			ds = delta.Compute(c.topo, changes, delta.Options{
				UnboundedConfig: bgp.ConfigUnbounded(c.cfg),
				Metrics:         c.opts.DeltaMetrics,
			})
			if !ds.Full() {
				mode = "delta"
				dirty = ds.Devices()
			}
		}
	}
	if c.pec != nil && mode == "delta" {
		// Blast-radius invalidation: dirty devices re-atomize, everyone
		// else stays a content-hash cache hit inside the PEC checker.
		c.pec.Invalidate(dirty)
	}

	queues := make([]*deque, len(c.shards))
	for i, s := range c.shards {
		s.synth.RefreshDelta(ds, since)
		work := s.devices
		if mode == "delta" {
			work = intersect(dirty, s.devices)
		}
		queues[i] = &deque{}
		for _, ch := range chunked(i, work) {
			queues[i].push(ch)
		}
	}

	fresh, errs := c.run(queues)

	var devs []rcdc.DeviceReport
	if mode == "delta" {
		// Splice fresh results into the previous merge, exactly as
		// rcdc.ValidateDelta splices into a previous report: an errored
		// dirty device keeps its previous result.
		devs = append([]rcdc.DeviceReport(nil), c.merged.Devices...)
		pos := make(map[topology.DeviceID]int, len(devs))
		for i := range devs {
			pos[devs[i].Device] = i
		}
		for _, fr := range fresh {
			if i, ok := pos[fr.Device]; ok {
				devs[i] = fr
			} else {
				devs = append(devs, fr)
			}
		}
	} else {
		devs = fresh
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i].Device < devs[j].Device })
	rep := &rcdc.Report{Devices: devs, Workers: c.workers(), Generation: gen}
	for i := range devs {
		rep.Checked += devs[i].Contracts
		rep.Failures += len(devs[i].Violations)
	}
	rep.Elapsed = clock.Since(c.opts.Clock, start)
	c.opts.Metrics.observeSweep(mode, rep.Elapsed)
	if len(errs) > 0 {
		return rep, errors.Join(errs...)
	}
	c.merged = rep
	return rep, nil
}

// run drains the per-shard queues with the stealing pool: worker i owns
// queue i (popping newest-first), and when its queue drains it steals
// oldest-first from the other shards, so a skewed partition or a slow
// shard cannot serialize the sweep. Every chunk is validated against its
// owning shard's FIB source — the sources and the shared memoizing
// contract generator are mutex-guarded, so cross-shard execution is safe.
func (c *Coordinator) run(queues []*deque) ([]rcdc.DeviceReport, []error) {
	v := &rcdc.Validator{Checker: c.checker(), Workers: 1, Clock: c.opts.Clock}
	var (
		outMu sync.Mutex
		reps  []rcdc.DeviceReport
		errs  []error
	)
	var wg sync.WaitGroup
	for w := 0; w < c.workers(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			home := w % len(queues)
			for {
				ch, ok := queues[home].popBottom()
				for off := 1; !ok && off < len(queues); off++ {
					ch, ok = queues[(home+off)%len(queues)].stealTop()
				}
				if !ok {
					return
				}
				if ch.owner != home {
					c.opts.Metrics.steal()
				}
				chunkStart := clock.Or(c.opts.Clock).Now()
				src := c.shards[ch.owner].synth
				for _, id := range ch.devs {
					tbl, err := src.Table(id)
					if err != nil {
						outMu.Lock()
						errs = append(errs, fmt.Errorf("rcdc: pulling table for device %d: %w", id, err))
						outMu.Unlock()
						continue
					}
					rep, err := v.ValidateDevice(c.facts, tbl, c.cgen.ForDevice(id))
					outMu.Lock()
					if err != nil {
						errs = append(errs, err)
					} else {
						reps = append(reps, rep)
					}
					outMu.Unlock()
				}
				c.opts.Metrics.observeShard(ch.owner, clock.Since(c.opts.Clock, chunkStart))
			}
		}(w)
	}
	wg.Wait()
	sort.Slice(reps, func(i, j int) bool { return reps[i].Device < reps[j].Device })
	return reps, errs
}

// intersect returns the elements common to two ascending device lists.
func intersect(a, b []topology.DeviceID) []topology.DeviceID {
	var out []topology.DeviceID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
