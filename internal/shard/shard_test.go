package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

func testParams() topology.Params {
	return topology.Params{
		Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 2, RSLinksPerSpine: 1,
		PrefixesPerToR: 1,
	}
}

// renderReport renders the semantic content of a report, excluding
// timing and worker counts — the byte-identity surface of the
// shard-equivalence contract.
func renderReport(rep *rcdc.Report) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "checked=%d failures=%d\n", rep.Checked, rep.Failures)
	for i := range rep.Devices {
		d := &rep.Devices[i]
		fmt.Fprintf(&buf, "dev=%d name=%s role=%s contracts=%d\n", d.Device, d.Name, d.Role, d.Contracts)
		for _, v := range d.Violations {
			fmt.Fprintf(&buf, "  %s\n", v.String())
		}
	}
	return buf.Bytes()
}

// groundTruth is a from-scratch single-engine full sweep.
func groundTruth(t *testing.T, topo *topology.Topology) *rcdc.Report {
	t.Helper()
	v := rcdc.Validator{Workers: 2}
	rep, err := v.ValidateAll(metadata.FromTopology(topo), bgp.NewSynth(topo, nil))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRingDeterministicAndComplete(t *testing.T) {
	r := NewRing(5)
	if r.Shards() != 5 {
		t.Fatalf("Shards() = %d", r.Shards())
	}
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("pod-%d", i)
		s := r.Shard(key)
		if s < 0 || s >= 5 {
			t.Fatalf("key %s → shard %d out of range", key, s)
		}
		if s2 := r.Shard(key); s2 != s {
			t.Fatalf("key %s unstable: %d then %d", key, s, s2)
		}
		seen[s] = true
	}
	if len(seen) != 5 {
		t.Fatalf("1000 keys landed on only %d/5 shards", len(seen))
	}
	// A clamped ring still works.
	if NewRing(0).Shard("x") != 0 {
		t.Fatal("single-shard ring must map everything to shard 0")
	}
}

// TestPartitionCoversFleet: every device lands on exactly one shard, and
// pod-mates land together.
func TestPartitionCoversFleet(t *testing.T) {
	topo := topology.MustNew(testParams())
	c := New(topo, nil, 3, Options{})
	owner := make(map[topology.DeviceID]int)
	for s := 0; s < c.Shards(); s++ {
		for _, id := range c.Devices(s) {
			if prev, dup := owner[id]; dup {
				t.Fatalf("device %d on shards %d and %d", id, prev, s)
			}
			owner[id] = s
		}
	}
	if len(owner) != len(topo.Devices) {
		t.Fatalf("assigned %d devices, fleet has %d", len(owner), len(topo.Devices))
	}
	podShard := map[string]int{}
	for i := range topo.Devices {
		d := &topo.Devices[i]
		key := PartitionKey(d)
		if s, ok := podShard[key]; ok && s != owner[d.ID] {
			t.Fatalf("partition key %s split across shards %d and %d", key, s, owner[d.ID])
		}
		podShard[key] = owner[d.ID]
	}
}

// TestSweepEquivalence: a coordinator sweep renders byte-identically to
// a single-engine full sweep, for every shard width, healthy and failed.
func TestSweepEquivalence(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		topo := topology.MustNew(testParams())
		c := New(topo, nil, n, Options{})
		want := renderReport(groundTruth(t, topo))
		rep, err := c.Sweep()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := renderReport(rep); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: sharded sweep diverged from single engine\n--- sharded ---\n%s--- single ---\n%s", n, got, want)
		}
		// Degrade and re-sweep (delta path).
		topo.FailLink(topo.ClusterToRs(0)[0], topo.ClusterLeaves(0)[0])
		rep2, err := c.Sweep()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if rep2.Failures == 0 {
			t.Fatalf("n=%d: no violations after link failure", n)
		}
		if got := renderReport(rep2); !bytes.Equal(got, renderReport(groundTruth(t, topo))) {
			t.Fatalf("n=%d: delta sweep diverged from single engine", n)
		}
	}
}

// TestSweepCached: a repeat sweep at an unchanged generation returns the
// cached merge without revalidating.
func TestSweepCached(t *testing.T) {
	topo := topology.MustNew(testParams())
	c := New(topo, nil, 2, Options{})
	r1, err := c.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("repeat sweep did not return the cached merge")
	}
}

// TestShardProperty is the 40-step randomized equivalence property:
// mutations interleaved with sweeps and repeat (cached) sweeps, with the
// merged report compared byte-for-byte against a from-scratch
// single-engine sweep at every step, for N ∈ {1, 2, 5} simultaneously.
func TestShardProperty(t *testing.T) {
	topo := topology.MustNew(testParams())
	rng := rand.New(rand.NewSource(42))
	coords := map[int]*Coordinator{}
	for _, n := range []int{1, 2, 5} {
		coords[n] = New(topo, nil, n, Options{})
	}
	links := len(topo.Links)
	for step := 0; step < 40; step++ {
		l := topology.LinkID(rng.Intn(links))
		switch op := rng.Intn(6); op {
		case 0:
			topo.SetLinkUp(l, false)
		case 1:
			topo.SetLinkUp(l, true)
		case 2:
			topo.SetSessionUp(l, false)
		case 3:
			topo.SetSessionUp(l, true)
		case 4:
			topo.RestoreAll()
		case 5:
			// No mutation: this step exercises the cached-sweep path.
		}
		want := renderReport(groundTruth(t, topo))
		for _, n := range []int{1, 2, 5} {
			rep, err := coords[n].Sweep()
			if err != nil {
				t.Fatalf("step %d n=%d: %v", step, n, err)
			}
			if rep.Generation != topo.Generation() {
				t.Fatalf("step %d n=%d: report generation %d, topology %d",
					step, n, rep.Generation, topo.Generation())
			}
			if got := renderReport(rep); !bytes.Equal(got, want) {
				t.Fatalf("step %d n=%d: sharded sweep diverged from single engine\n--- sharded ---\n%s--- single ---\n%s",
					step, n, got, want)
			}
		}
	}
}
