package shard

import (
	"fmt"
	"sync"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/clock"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// Options configures a Coordinator.
type Options struct {
	// Workers is the parallelism degree of Sweep (rcdc.Validator.Workers);
	// 0 means GOMAXPROCS.
	Workers int
	// Replicas is the virtual-node count per shard on the hash ring; 0
	// means the package default.
	Replicas int
	// Clock times sweeps; nil means the system clock.
	Clock clock.Clock
}

// shardState is one validator shard: its slice of the fleet (ascending
// device order) and its own generation-cached FIB source, which holds the
// tables of those devices and no others.
type shardState struct {
	devices []topology.DeviceID
	synth   *bgp.Synth
}

// Coordinator partitions the fleet across N validator shards by
// consistent hashing over the Clos pod structure — whole pods (and spine
// planes, and regional spines) land on one shard, preserving the table
// locality the per-shard FIB caches exploit. Which shard owns a device
// decides whose table cache answers for it and nothing else: the
// coordinator is a FIB source (rcdc.RowSource with RefreshDelta) that
// routes every pull to the owner, and validation over it is the one
// rcdc.Validator.Revalidate — the engine hands the coordinator to it in
// place of its own synth; Sweep drives it standalone.
//
// Sweep is safe for concurrent use. The source methods follow bgp.Synth's
// rule: pulls may run concurrently, RefreshDelta must not overlap them.
type Coordinator struct {
	topo  *topology.Topology
	cfg   map[topology.DeviceID]*bgp.DeviceConfig
	opts  Options
	m     *Metrics
	ring  *Ring
	facts *metadata.Facts
	cgen  *contracts.Generator

	shards []*shardState
	owner  []*bgp.Synth // by device ID: the owning shard's source

	mu     sync.Mutex
	merged *rcdc.Report // Sweep's last report, keyed by merged.Generation
}

// New builds a coordinator of n shards over the topology and config map.
// The config map is shared with the caller (the engine mutates it under
// its own lock; sweeps observe it through the journaled generation).
func New(topo *topology.Topology, cfg map[topology.DeviceID]*bgp.DeviceConfig, n int, opts Options) *Coordinator {
	c := &Coordinator{
		topo: topo, cfg: cfg, opts: opts,
		ring:  NewRing(n, opts.Replicas),
		facts: metadata.FromTopology(topo),
		owner: make([]*bgp.Synth, len(topo.Devices)),
	}
	c.cgen = contracts.NewGenerator(c.facts)
	c.cgen.EnableMemo()
	c.shards = make([]*shardState, c.ring.Shards())
	for i := range c.shards {
		synth := bgp.NewSynth(topo, cfg)
		synth.EnableTableCache()
		c.shards[i] = &shardState{synth: synth}
	}
	for i := range topo.Devices {
		d := &topo.Devices[i]
		s := c.shards[c.ring.Shard(PartitionKey(d))]
		s.devices = append(s.devices, d.ID)
		c.owner[d.ID] = s.synth
	}
	return c
}

// Instrument points the coordinator's counters at m, publishing the
// partition sizes there, and every shard's table cache at tables. Either
// may be nil; a new coordinator records nothing.
func (c *Coordinator) Instrument(m *Metrics, tables *bgp.Metrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = m
	for i, s := range c.shards {
		m.observeAssignment(i, len(s.devices))
		s.synth.Metrics = tables
	}
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

// Shards returns the partition width.
func (c *Coordinator) Shards() int { return c.ring.Shards() }

// Devices returns shard i's slice of the fleet in ascending device order.
func (c *Coordinator) Devices(i int) []topology.DeviceID {
	return append([]topology.DeviceID(nil), c.shards[i].devices...)
}

// Table pulls a device's converged FIB from the shard that owns it.
func (c *Coordinator) Table(d topology.DeviceID) (*fib.Table, error) { return c.owner[d].Table(d) }

// Rows answers a row query (rcdc.RowSource) from the owning shard's cache.
func (c *Coordinator) Rows(d topology.DeviceID, overlapping []ipnet.Prefix) ([]fib.Entry, error) {
	return c.owner[d].Rows(d, overlapping)
}

// RefreshDelta brings every shard's source up to the live topology, each
// table cache synchronized from ds — the blast radius of the changes
// journaled after generation since — as bgp.Synth.RefreshDelta describes.
func (c *Coordinator) RefreshDelta(ds *delta.Set, since uint64) {
	for _, s := range c.shards {
		s.synth.RefreshDelta(ds, since)
	}
}

// Sweep produces a complete fleet report for the current topology
// generation. Repeat sweeps at an unchanged generation return the cached
// report; otherwise rcdc.Validator.Revalidate brings the previous one up to
// date over the coordinator's own sources — the blast radius of the
// journaled changes, or the whole fleet when that cannot be bounded. The
// report renders byte-identically to a single-engine sweep of the same
// state; one that came with per-device errors is returned but not cached.
func (c *Coordinator) Sweep() (*rcdc.Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := clock.Or(c.opts.Clock).Now()
	if c.merged != nil && c.merged.Generation == c.topo.Generation() {
		c.m.observeSweep("cached", 0)
		return c.merged, nil
	}
	v := rcdc.Validator{Workers: c.opts.Workers, Clock: c.opts.Clock}
	rep, ds, err := v.Revalidate(c.merged, c.topo, c.facts, c.cgen, c,
		delta.Options{UnboundedConfig: bgp.ConfigUnbounded(c.cfg)})
	mode := "full"
	if ds != nil && !ds.Full() {
		mode = "delta"
	}
	c.m.observeSweep(mode, clock.Since(c.opts.Clock, start))
	if err != nil {
		return rep, err
	}
	c.merged = rep
	return rep, nil
}
