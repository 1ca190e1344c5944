package dcvalidate

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/classcheck"
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
// After one leaf–spine failure on a warmed validator, every
// (device × prefix) whose derived next hops moved lies inside its device's
// scope, and the revalidated report renders identically to a from-scratch
// sweep of the failed fleet (see flipSound), and the devices that share a
// class for their scope agree on everything their verdicts read. The
// 10 k-device leg is skipped under -short.
func TestLeafSpineFlipSoundAtScale(t *testing.T) {
	flipSoundAtScale(t, func(topo *topology.Topology) (topology.DeviceID, topology.DeviceID) {
		leaf := topo.ClusterLeaves(0)[0]
		for _, nb := range topo.Neighbors(leaf) {
			if topo.Device(nb).Role == topology.RoleSpine {
				return leaf, nb
			}
		}
		return leaf, -1
	})
}

// TestToRLeafFlipSoundAtScale is TestLeafSpineFlipSoundAtScale for the
// operator's common event, one ToR–leaf failure.
func TestToRLeafFlipSoundAtScale(t *testing.T) {
	flipSoundAtScale(t, func(topo *topology.Topology) (topology.DeviceID, topology.DeviceID) {
		return topo.ClusterToRs(1)[3], topo.ClusterLeaves(1)[2]
	})
}

func flipSoundAtScale(t *testing.T, link func(*topology.Topology) (topology.DeviceID, topology.DeviceID)) {
	for _, n := range []int{520, 2008, 10000} {
		t.Run(fmt.Sprintf("devices=%d", n), func(t *testing.T) {
			if n > 2008 && testing.Short() {
				t.Skip("builds a 10 k-device datacenter")
			}
			flipSound(t, experiments.SizedParams("sound", n), link)
		})
	}
}

// TestSeededFaultSweepClassesSound arms the full-check class gate on the
// fleet_sweep benchmark's fleet: 2008 devices carrying its 12 seeded link
// faults (seed 1: a third leaf–spine, the rest ToR–leaf, each a shut
// session or a failed link), swept whole. The devices the synthesizer puts
// in one class for a full check must agree on everything their verdicts
// read (classcheck.Check), and the class-collapsed sweep must render the
// bytes of a sweep through a source that offers runs but no classes.
func TestSeededFaultSweepClassesSound(t *testing.T) {
	topo := seededFleet()
	facts := metadata.FromTopology(topo)
	synth := bgp.NewSynth(topo, nil)
	all := delta.NewSet()
	all.MarkFull()
	classes, members, err := classcheck.Check(topo, synth, bgp.NewSynth(topo, nil), contracts.NewGenerator(facts), all)
	if err != nil {
		t.Fatalf("class soundness: %v", err)
	}
	if members == 0 {
		t.Fatal("no device shares a full check's class with another: the class gate exercised nothing")
	}
	v := rcdc.Validator{Workers: 2}
	got, err := v.ValidateAll(facts, synth)
	if err != nil {
		t.Fatal(err)
	}
	want, err := v.ValidateAll(facts, runsOnly{synth})
	if err != nil {
		t.Fatal(err)
	}
	if got.Failures == 0 {
		t.Fatal("the seeded faults turned no device red")
	}
	if g, w := renderReport(got), renderReport(want); !bytes.Equal(g, w) {
		t.Fatalf("class-collapsed sweep diverges from one without classes:\n--- classes\n%s--- none\n%s", g, w)
	}
	t.Logf("%d devices in %d classes, %d violations", classes+members, classes, got.Failures)
}

// seededFleet builds the fleet_sweep benchmark's fleet: 2008 devices
// carrying its 12 seed-1 link faults, a third leaf–spine and the rest
// ToR–leaf, each a shut session or a failed link.
func seededFleet() *topology.Topology {
	topo := topology.MustNew(experiments.SizedParams("dc", 2008))
	var torLeaf, leafSpine []topology.LinkID
	for i := range topo.Links {
		switch topo.Device(topo.Links[i].A).Role {
		case topology.RoleToR:
			torLeaf = append(torLeaf, topo.Links[i].ID)
		case topology.RoleLeaf:
			leafSpine = append(leafSpine, topo.Links[i].ID)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, draw := range []struct {
		links []topology.LinkID
		n     int
	}{{leafSpine, 4}, {torLeaf, 8}} {
		for _, i := range rng.Perm(len(draw.links))[:draw.n] {
			if rng.Intn(2) == 0 {
				topo.SetSessionUp(draw.links[i], false)
			} else {
				topo.SetLinkUp(draw.links[i], false)
			}
		}
	}
	return topo
}

// runsOnly offers a synthesizer's runs but not its classes (no
// rcdc.ClassSource): every device of a sweep is merged on its own.
type runsOnly struct{ s *bgp.Synth }

func (r runsOnly) Table(d topology.DeviceID) (*fib.Table, error) { return r.s.Table(d) }
func (r runsOnly) RunPrefixes() []topology.HostedPrefix          { return r.s.RunPrefixes() }
func (r runsOnly) TableRuns(d topology.DeviceID, lo, hi int, buf fib.RunTable) fib.RunTable {
	return r.s.TableRuns(d, lo, hi, buf)
}

// flipSound fails the link between the two devices link picks on a
// warmed validator and checks the blast radius the sweep
// planned from against the derivation, which reaches the same facts
// independently: the runs and rows outside the runs each device derives
// before and after the failure — its next hops per class run, block and
// prefix stretch — must differ only at prefixes inside the device's row
// scope (sound). That costs the runs each device emits, so it runs at
// every size. Up to 2008 devices the expanded FIB rows are compared too,
// row by row. The devices the maintained synthesizer puts in one class for
// their scope's stretch — whose verdicts the scoped check hands from one to
// the other — must have equal content keys there (classcheck.Check), by a
// fresh synthesis, and so must the devices it puts in one class for a
// full check, around their home (the gate's full-check mode, over every
// device). Then the revalidated report must render identically to a
// from-scratch sweep of the failed fleet.
func flipSound(t *testing.T, p topology.Params, link func(*topology.Topology) (topology.DeviceID, topology.DeviceID)) {
	topo := topology.MustNew(p)
	facts := metadata.FromTopology(topo)
	v := rcdc.Validator{Workers: 2}
	synth := bgp.NewSynth(topo, nil)
	gen := contracts.NewGenerator(facts)
	gen.EnableMemo()
	prev, err := v.ValidateAll(facts, synth)
	if err != nil {
		t.Fatal(err)
	}
	prev.Generation = topo.Generation()
	healthy := topo.Clone()

	if a, b := link(topo); !topo.FailLink(a, b) {
		t.Fatal("FailLink failed")
	}
	rep, ds, err := v.Revalidate(prev, topo, facts, gen, synth, delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Full() {
		t.Fatal("one link failure planned a full sweep")
	}

	was, is := bgp.NewSynth(healthy, nil), bgp.NewSynth(topo, nil)
	prefixes := is.RunPrefixes()
	tables := len(topo.Devices) <= 2008
	scoped, moved := 0, 0
	for id := range topo.Devices {
		d := topology.DeviceID(id)
		sc, dirty := ds.Scope(d)
		if sc.Whole {
			continue
		}
		if dirty {
			scoped++
		}
		inScope := func(r ipnet.Prefix, what string) {
			t.Helper()
			if _, in := slices.BinarySearchFunc(sc.Rows, r, ipnet.Prefix.Compare); !in {
				t.Fatalf("device %s: %s %s moved outside its scope (dirty=%v, %d rows in scope)",
					topo.Device(d).Name, what, r, dirty, len(sc.Rows))
			}
		}
		a, b := was.TableRuns(d, 0, len(prefixes), fib.RunTable{}), is.TableRuns(d, 0, len(prefixes), fib.RunTable{})
		for _, st := range movedRuns(a.Runs, b.Runs) {
			for pi := st[0]; pi < st[1]; pi++ {
				inScope(prefixes[pi].Prefix, "run row")
				moved++
			}
		}
		for _, r := range changedRows(&fib.Table{Entries: a.Rows}, &fib.Table{Entries: b.Rows}) {
			inScope(r, "row")
		}
		if !tables {
			continue
		}
		ta, err := was.Table(d)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := is.Table(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range changedRows(ta, tb) {
			inScope(r, "FIB row")
		}
	}

	if scoped == 0 || moved == 0 {
		t.Fatalf("%d devices of the %d dirty scoped to rows, %d (device × prefix) moved: the failure exercised nothing", scoped, ds.Count(), moved)
	}
	classes, members, err := classcheck.Check(topo, synth, is, gen, ds)
	if err != nil {
		t.Fatalf("class soundness: %v", err)
	}
	if members == 0 {
		t.Fatalf("no device of the %d dirty shares a class with another: the class gate exercised nothing", ds.Count())
	}
	all := delta.NewSet()
	all.MarkFull()
	fullClasses, fullMembers, err := classcheck.Check(topo, synth, is, gen, all)
	if err != nil {
		t.Fatalf("class soundness of a full sweep: %v", err)
	}
	if fullMembers == 0 {
		t.Fatal("no device shares a full check's class with another: the class gate exercised nothing")
	}

	full, err := v.ValidateAll(facts, bgp.NewSynth(topo, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderReport(rep), renderReport(full); !bytes.Equal(got, want) {
		t.Fatalf("revalidated report diverges from a full sweep:\n--- revalidated\n%s--- full\n%s", got, want)
	}
	t.Logf("%d devices: %d dirty after one link failure (%d scoped to rows, %d of them in %d classes), %d (device × prefix) moved, %d violations; a full sweep: %d devices in %d classes",
		len(topo.Devices), ds.Count(), scoped, classes+members, classes, moved, rep.Failures, fullClasses+fullMembers, fullClasses)
}

// movedRuns returns the stretches of positions, ascending and disjoint,
// where two run lists over one prefix list disagree: a position in a run
// of one and not the other, or in runs of both with different next hops.
func movedRuns(a, b []fib.Run) [][2]int {
	var cuts []int
	for _, rs := range [][]fib.Run{a, b} {
		for _, r := range rs {
			cuts = append(cuts, r.Lo, r.Hi)
		}
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	// hops returns the next hops at position pi, advancing *rs past the
	// runs that end before it; ok is false outside every run.
	hops := func(rs *[]fib.Run, pi int) ([]topology.DeviceID, bool) {
		for len(*rs) > 0 && (*rs)[0].Hi <= pi {
			*rs = (*rs)[1:]
		}
		if len(*rs) > 0 && (*rs)[0].Lo <= pi {
			return (*rs)[0].NextHops, true
		}
		return nil, false
	}
	var out [][2]int
	for i := 0; i+1 < len(cuts); i++ {
		x, okx := hops(&a, cuts[i])
		y, oky := hops(&b, cuts[i])
		if okx == oky && slices.Equal(x, y) {
			continue
		}
		if n := len(out); n > 0 && out[n-1][1] == cuts[i] {
			out[n-1][1] = cuts[i+1]
		} else {
			out = append(out, [2]int{cuts[i], cuts[i+1]})
		}
	}
	return out
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
