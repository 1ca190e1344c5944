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
	// Clock times sweeps; nil means the system clock.
	Clock clock.Clock
}

// shardState is one validator shard: its slice of the fleet (ascending
// device order) and its own FIB source, which answers the pulls of those
// devices and no others.
type shardState struct {
	devices []topology.DeviceID
	synth   *bgp.Synth
}

// Coordinator partitions the fleet across N validator shards by
// consistent hashing over the Clos pod structure — whole pods (and spine
// planes, and regional spines) land on one shard. Which shard owns a
// device decides whose source answers for it and nothing else: the
// coordinator is a FIB source (rcdc.RowSource and rcdc.Refresher) that
// routes every pull to the owner, and Sweep runs the one
// rcdc.Validator.Revalidate over it.
//
// Sweep is safe for concurrent use. The source methods follow bgp.Synth's
// rule: pulls may run concurrently, a refresh must not overlap them.
type Coordinator struct {
	topo  *topology.Topology
	cfg   map[topology.DeviceID]*bgp.DeviceConfig
	opts  Options
	ring  *Ring
	facts *metadata.Facts
	cgen  *contracts.Generator

	shards []*shardState
	owner  []*bgp.Synth // by device ID: the owning shard's source

	mu     sync.Mutex
	merged *rcdc.Report // Sweep's last report, keyed by merged.Generation
}

// New builds a coordinator of n shards over the topology and config map.
// The config map is shared with the caller, whose changes sweeps observe
// through the journaled generation.
func New(topo *topology.Topology, cfg map[topology.DeviceID]*bgp.DeviceConfig, n int, opts Options) *Coordinator {
	c := &Coordinator{
		topo: topo, cfg: cfg, opts: opts,
		ring:  NewRing(n),
		facts: metadata.FromTopology(topo),
		owner: make([]*bgp.Synth, len(topo.Devices)),
	}
	c.cgen = contracts.NewGenerator(c.facts)
	c.cgen.EnableMemo()
	c.shards = make([]*shardState, c.ring.Shards())
	for i := range c.shards {
		c.shards[i] = &shardState{synth: bgp.NewSynth(topo, cfg)}
	}
	for i := range topo.Devices {
		d := &topo.Devices[i]
		s := c.shards[c.ring.Shard(PartitionKey(d))]
		s.devices = append(s.devices, d.ID)
		c.owner[d.ID] = s.synth
	}
	return c
}

// PartitionKey returns the ring key a device is placed by: its pod for
// ToRs and leaves, its plane for spines, its index for regional spines.
// Hashing structural units instead of devices keeps each pod's FIBs —
// which share most of their routes — on one shard.
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

// Rows answers a row query (rcdc.RowSource) from the owning shard.
func (c *Coordinator) Rows(d topology.DeviceID, overlapping []ipnet.Prefix) ([]fib.Entry, error) {
	return c.owner[d].Rows(d, overlapping)
}

// Refresh derives every shard's source afresh (bgp.Synth.Refresh).
func (c *Coordinator) Refresh() {
	for _, s := range c.shards {
		s.synth.Refresh()
	}
}

// RefreshDelta brings every shard's source up to the live topology from
// the change journal (bgp.Synth.RefreshDelta).
func (c *Coordinator) RefreshDelta() {
	for _, s := range c.shards {
		s.synth.RefreshDelta()
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
	if c.merged != nil && c.merged.Generation == c.topo.Generation() {
		return c.merged, nil
	}
	v := rcdc.Validator{Clock: c.opts.Clock}
	rep, _, err := v.Revalidate(c.merged, c.topo, c.facts, c.cgen, c,
		delta.Options{UnboundedConfig: bgp.ConfigUnbounded(c.cfg)})
	if err != nil {
		return rep, err
	}
	c.merged = rep
	return rep, nil
}
