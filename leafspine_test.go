package dcvalidate

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/experiments"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// TestLeafSpineFlipSoundAtScale arms the change-driven sweep's soundness
// gate at the fleet sizes the benchmarks measure, not only at the small
// fleets of TestBlastRadiusIsSuperset and TestIncrementalEquivalence.
// After one leaf–spine failure on a warmed, table-cached validator, every
// FIB row that differs from a from-scratch synthesis of the healthy
// fleet — changed, appeared or vanished, the default row included — lies
// inside its device's scope, and the revalidated report renders
// identically to a from-scratch sweep of the failed fleet.
func TestLeafSpineFlipSoundAtScale(t *testing.T) {
	for _, n := range []int{520, 2008} {
		t.Run(fmt.Sprintf("devices=%d", n), func(t *testing.T) {
			leafSpineFlipSound(t, experiments.SizedParams("sound", n))
		})
	}
}

func leafSpineFlipSound(t *testing.T, p topology.Params) {
	topo := topology.MustNew(p)
	facts := metadata.FromTopology(topo)
	v := rcdc.Validator{Workers: 2}
	cached := bgp.NewSynth(topo, nil)
	cached.EnableTableCache()
	gen := contracts.NewGenerator(facts)
	gen.EnableMemo()
	prev, err := v.ValidateAll(facts, cached)
	if err != nil {
		t.Fatal(err)
	}
	prev.Generation = topo.Generation()
	healthy := topo.Clone()

	leaf := topo.ClusterLeaves(0)[0]
	spine := topology.DeviceID(-1)
	for _, nb := range topo.Neighbors(leaf) {
		if topo.Device(nb).Role == topology.RoleSpine {
			spine = nb
			break
		}
	}
	if !topo.FailLink(leaf, spine) {
		t.Fatal("FailLink failed")
	}
	rep, ds, err := v.Revalidate(prev, topo, facts, gen, cached, delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Full() {
		t.Fatal("one leaf–spine failure planned a full sweep")
	}

	was, is := bgp.NewSynth(healthy, nil), bgp.NewSynth(topo, nil)
	scoped := 0
	for id := range topo.Devices {
		d := topology.DeviceID(id)
		sc, dirty := ds.Scope(d)
		if sc.Whole {
			continue
		}
		if dirty {
			scoped++
		}
		a, err := was.Table(d)
		if err != nil {
			t.Fatal(err)
		}
		b, err := is.Table(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range changedRows(a, b) {
			if _, in := slices.BinarySearchFunc(sc.Rows, r, ipnet.Prefix.Compare); !in {
				t.Fatalf("device %s row %s changed outside its scope (dirty=%v, %d rows in scope)",
					topo.Device(d).Name, r, dirty, len(sc.Rows))
			}
		}
	}

	if scoped == 0 {
		t.Fatalf("no device of the %d dirty is scoped to rows", ds.Count())
	}

	full, err := v.ValidateAll(facts, bgp.NewSynth(topo, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderReport(rep), renderReport(full); !bytes.Equal(got, want) {
		t.Fatalf("revalidated report diverges from a full sweep:\n--- revalidated\n%s--- full\n%s", got, want)
	}
	t.Logf("%d devices: %d dirty after one leaf–spine failure (%d scoped to rows), %d violations",
		len(topo.Devices), ds.Count(), scoped, rep.Failures)
}

// changedRows lists the prefixes whose row differs between two tables of
// one device: changed next hops or connectedness, or present in only one.
// Tables synthesized from one prefix list share its order, so they are
// compared row by row; a prefix map is built only when the rows differ
// in which prefixes they hold.
func changedRows(a, b *fib.Table) []ipnet.Prefix {
	same := func(x, y fib.Entry) bool {
		return x.Connected == y.Connected && slices.Equal(x.NextHops, y.NextHops)
	}
	var out []ipnet.Prefix
	if slices.EqualFunc(a.Entries, b.Entries, func(x, y fib.Entry) bool { return x.Prefix == y.Prefix }) {
		for i, e := range b.Entries {
			if !same(a.Entries[i], e) {
				out = append(out, e.Prefix)
			}
		}
		return out
	}
	was := make(map[ipnet.Prefix]fib.Entry, len(a.Entries))
	for _, e := range a.Entries {
		was[e.Prefix] = e
	}
	for _, e := range b.Entries {
		if old, ok := was[e.Prefix]; !ok || !same(old, e) {
			out = append(out, e.Prefix)
		}
		delete(was, e.Prefix)
	}
	for p := range was {
		out = append(out, p)
	}
	return out
}
