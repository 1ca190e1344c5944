package rcdc

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/clock"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/topology"
)

// clockedSynth is a cached synthesizer on a virtual clock that a refresh
// advances by 3 ms and every pull of runs by 1 µs, so each stage of a
// traced Revalidate takes a known, nonzero time. It counts the pulls that
// ask for less than the whole prefix list in home.
type clockedSynth struct {
	*bgp.Synth
	vc   *clock.Virtual
	home *int
}

func (c clockedSynth) Refresh() {
	c.vc.Advance(3 * time.Millisecond)
	c.Synth.Refresh()
}

func (c clockedSynth) RefreshDelta() {
	c.vc.Advance(3 * time.Millisecond)
	c.Synth.RefreshDelta()
}

func (c clockedSynth) TableRuns(d topology.DeviceID, lo, hi int, buf fib.RunTable) fib.RunTable {
	c.vc.Advance(time.Microsecond)
	if hi-lo < len(c.RunPrefixes()) {
		*c.home++
	}
	return c.Synth.TableRuns(d, lo, hi, buf)
}

// TestRevalidateTraceStagesNest: a traced Revalidate records one
// rcdc.Revalidate span whose children — window, refresh and check, in that
// order — nest inside it, follow one another and sum to no more than it;
// refresh and check take the time their stages advanced the clock by. The
// check pulls the devices it merges on its own (see checkRuns) — one per
// class of ToRs or leaves outside the flipped ToR's cluster, and every
// other dirty device — and no other. A full sweep then pulls every device
// once: the first ToR of each (cluster, direct mask) class over the whole
// list, the class's other ToRs over their own cluster alone.
func TestRevalidateTraceStagesNest(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 1,
	})
	facts := metadata.FromTopology(topo)
	vc := clock.NewVirtual(time.Unix(1000, 0))
	synth := bgp.NewSynth(topo, nil)
	src := clockedSynth{Synth: synth, vc: vc, home: new(int)}
	tr := obs.NewTracer(vc, 64)
	v := Validator{Workers: 1, Clock: vc, Tracer: tr}
	prev, _, err := v.Revalidate(nil, topo, facts, nil, src, delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	topo.FailLink(topo.ClusterToRs(0)[0], topo.ClusterLeaves(0)[0])
	_, ds, err := v.Revalidate(prev, topo, facts, nil, src, delta.Options{})
	if err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()
	root := -1
	for i := range spans {
		if spans[i].Name == "rcdc.Revalidate" {
			root = i
		}
	}
	if root < 0 {
		t.Fatalf("no rcdc.Revalidate span among %d", len(spans))
	}
	parent := spans[root]
	var stages []obs.SpanData
	for _, sp := range spans {
		if sp.Parent == parent.ID {
			stages = append(stages, sp)
		}
	}
	slices.SortFunc(stages, func(a, b obs.SpanData) int { return a.Start.Compare(b.Start) })
	var names []string
	var sum time.Duration
	for i, sp := range stages {
		names = append(names, sp.Name)
		sum += sp.Duration()
		if sp.Start.Before(parent.Start) || sp.End.After(parent.End) {
			t.Errorf("stage %s [%v, %v] outside its parent [%v, %v]", sp.Name, sp.Start, sp.End, parent.Start, parent.End)
		}
		if i > 0 && sp.Start.Before(stages[i-1].End) {
			t.Errorf("stage %s starts before %s ends", sp.Name, stages[i-1].Name)
		}
	}
	if got := fmt.Sprint(names); got != "[window refresh check]" {
		t.Fatalf("stages %s, want [window refresh check]", got)
	}
	if sum > parent.Duration() {
		t.Errorf("stages sum to %v, over their parent's %v", sum, parent.Duration())
	}
	if got := stages[1].Duration(); got != 3*time.Millisecond {
		t.Errorf("refresh took %v, want the 3ms it advanced the clock by", got)
	}
	// The flip dirties the ToR whole and every other ToR, the plane-0
	// leaves, the plane-0 spines and the regional spines in the ToR's rows.
	// Outside cluster 0 a cluster's ToRs, all healthy, are one class, and
	// so are the plane-0 leaves: their spine sets are whole.
	p := topo.Params
	others := p.Clusters - 1
	classes := others + 1
	unclassed := p.ToRsPerCluster + 1 + p.SpinesPerPlane + p.RegionalSpines // cluster 0's ToRs and leaf, spines, regional spines
	if dirty := others*(p.ToRsPerCluster+1) + unclassed; ds.Count() != dirty {
		t.Fatalf("%d dirty devices, want %d", ds.Count(), dirty)
	}
	if got, want := stages[2].Duration(), time.Duration(classes+unclassed)*time.Microsecond; got != want {
		t.Errorf("check took %v, want %v: one pull per class and per unclassed device", got, want)
	}

	// The full sweep: cluster 0's ToRs are two classes (the flipped ToR's
	// mask lost plane 0), every other cluster's one.
	*src.home = 0
	rep, err := v.ValidateAll(facts, src)
	if err != nil {
		t.Fatal(err)
	}
	tors := p.Clusters * p.ToRsPerCluster
	members := tors - (p.Clusters + 1)
	if got, want := rep.Elapsed, time.Duration(len(topo.Devices))*time.Microsecond; got != want {
		t.Errorf("full sweep took %v, want %v: one pull per device", got, want)
	}
	if *src.home != members {
		t.Errorf("full sweep pulled %d devices over their home, want %d: every ToR but one per (cluster, mask) class", *src.home, members)
	}
}

// TestRevalidateUntracedSpansAllocateNothing: without a tracer, the spans
// Revalidate opens are nil and cost no allocation.
func TestRevalidateUntracedSpansAllocateNothing(t *testing.T) {
	var v Validator
	allocs := testing.AllocsPerRun(100, func() {
		sp := v.Tracer.Start("rcdc.Revalidate")
		for _, name := range []string{"window", "refresh", "check"} {
			sp.Child(name).End()
		}
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("untraced spans make %v allocations, want 0", allocs)
	}
}

// TestScopedCheckLeavesSharedRunsIntact is the gate that makes reading runs
// in place safe: every run table the synthesizer hands out and every
// memoized contract run list the generator hands out is deep-copied before
// a change and its scoped check, and after them every slice handed out
// earlier must read exactly as its copy. Refreshes and the check replace
// state; none may write through what was handed out.
func TestScopedCheckLeavesSharedRunsIntact(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 3, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 2,
	})
	facts := metadata.FromTopology(topo)
	synth := bgp.NewSynth(topo, nil)
	gen := contracts.NewGenerator(facts)
	gen.EnableMemo()
	v := Validator{Workers: 2}
	rep, _, err := v.Revalidate(nil, topo, facts, gen, synth, delta.Options{})
	if err != nil {
		t.Fatal(err)
	}

	tor, leaf := topo.ClusterToRs(0)[1], topo.ClusterLeaves(0)[0]
	spine, rs := topo.Spines()[0], topo.RegionalSpines()[0]
	changes := []func(){
		func() { topo.FailLink(tor, leaf) },
		func() { topo.FailLink(leaf, spine) },
		func() { topo.RestoreLink(tor, leaf) },
		func() { topo.ShutSession(spine, rs); topo.FailLink(topo.ClusterToRs(2)[3], topo.ClusterLeaves(2)[1]) },
		func() { topo.RestoreAll() },
	}
	var held []fib.RunTable
	var heldRuns []contracts.DeviceRuns
	var want []string
	for step, change := range changes {
		// Hand out every device's runs, and copy them.
		held, heldRuns, want = held[:0], heldRuns[:0], want[:0]
		for i := range topo.Devices {
			d := topo.Devices[i].ID
			rt, cr := allRuns(synth, d), gen.Runs(d, nil)
			held, heldRuns = append(held, rt), append(heldRuns, cr)
			want = append(want, fmt.Sprint(deepRunTable(rt), deepDeviceRuns(cr)))
		}
		change()
		if rep, _, err = v.Revalidate(rep, topo, facts, gen, synth, delta.Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := v.ValidateAll(facts, synth); err != nil {
			t.Fatal(err)
		}
		changed := false
		for i := range held {
			if got := fmt.Sprint(held[i], heldRuns[i]); got != want[i] {
				t.Fatalf("step %d: device %s: runs handed out before the change now read\n%s\nwant\n%s",
					step, topo.Devices[i].Name, got, want[i])
			}
			changed = changed || fmt.Sprint(allRuns(synth, held[i].Device)) != fmt.Sprint(held[i])
		}
		if !changed {
			t.Fatalf("step %d: no device's runs moved; the change exercised nothing", step)
		}
	}
}

// deepRunTable copies rt down to its next-hop slices.
func deepRunTable(rt fib.RunTable) fib.RunTable {
	out := fib.RunTable{Device: rt.Device, Rows: slices.Clone(rt.Rows), Runs: slices.Clone(rt.Runs)}
	for i := range out.Rows {
		out.Rows[i].NextHops = slices.Clone(out.Rows[i].NextHops)
	}
	for i := range out.Runs {
		out.Runs[i].NextHops = slices.Clone(out.Runs[i].NextHops)
	}
	return out
}

// deepDeviceRuns copies dr down to its next-hop slices.
func deepDeviceRuns(dr contracts.DeviceRuns) contracts.DeviceRuns {
	out := contracts.DeviceRuns{Device: dr.Device, Default: slices.Clone(dr.Default), Runs: slices.Clone(dr.Runs)}
	for i := range out.Runs {
		out.Runs[i].NextHops = slices.Clone(out.Runs[i].NextHops)
	}
	return out
}

// BenchmarkRevalidateStages times one event of each class on a warmed,
// 2008-device fleet (the benchmarks' shape: 40 ToRs and 8
// leaves per cluster, 8 planes of 4 spines, 8 regional spines) through a
// traced Revalidate on the system clock, and reports the median of each
// stage — window (the blast radius), refresh (the source's RefreshDelta)
// and check (the scoped sweep and splice) — in µs. The event fails the
// class's link (or shuts its session) on even iterations and restores it
// on odd ones. Two more events, untimed and on a validator with metrics,
// give the devices an event dirties (dirty) and those its check merges on
// their own (classes: a representative per device class and worker, and
// every device no class covers; the rest take a representative's verdict).
func BenchmarkRevalidateStages(b *testing.B) {
	p := topology.Params{
		Name: "stages", ToRsPerCluster: 40, LeavesPerCluster: 8, SpinesPerPlane: 4,
		RegionalSpines: 8, RSLinksPerSpine: 4, PrefixesPerToR: 1,
	}
	p.Clusters = (2008 - 40 + 47) / 48
	for _, ev := range []struct {
		name    string
		a, b    func(*topology.Topology) topology.DeviceID
		session bool
	}{
		{"tor-leaf", func(t *topology.Topology) topology.DeviceID { return t.ToRs()[0] }, leaf0, false},
		{"leaf-spine", leaf0, func(t *topology.Topology) topology.DeviceID { return t.Spines()[0] }, false},
		{"rs-spine", func(t *topology.Topology) topology.DeviceID { return t.Spines()[0] },
			func(t *topology.Topology) topology.DeviceID { return t.RegionalSpines()[0] }, false},
		{"tor-leaf-session", func(t *topology.Topology) topology.DeviceID { return t.ToRs()[0] }, leaf0, true},
	} {
		b.Run(ev.name, func(b *testing.B) {
			topo := topology.MustNew(p)
			facts := metadata.FromTopology(topo)
			synth := bgp.NewSynth(topo, nil)
			gen := contracts.NewGenerator(facts)
			gen.EnableMemo()
			tr := obs.NewTracer(nil, 8)
			v := Validator{Workers: 2, Tracer: tr}
			rep, _, err := v.Revalidate(nil, topo, facts, gen, synth, delta.Options{})
			if err != nil {
				b.Fatal(err)
			}
			l, ok := topo.LinkBetween(ev.a(topo), ev.b(topo))
			if !ok {
				b.Fatal("no such link")
			}
			event := func(i int) *delta.Set {
				if ev.session {
					topo.SetSessionUp(l.ID, i%2 == 1)
				} else {
					topo.SetLinkUp(l.ID, i%2 == 1)
				}
				var ds *delta.Set
				if rep, ds, err = v.Revalidate(rep, topo, facts, gen, synth, delta.Options{}); err != nil {
					b.Fatal(err)
				}
				return ds
			}
			stages := map[string][]time.Duration{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				event(i)
				b.StopTimer()
				spans := tr.Spans()
				for _, sp := range spans {
					if sp.Parent == spans[len(spans)-1].ID {
						stages[sp.Name] = append(stages[sp.Name], sp.Duration())
					}
				}
				b.StartTimer()
			}
			b.StopTimer()
			for _, name := range []string{"window", "refresh", "check"} {
				d := stages[name]
				slices.Sort(d)
				b.ReportMetric(float64(d[len(d)/2].Nanoseconds())/1e3, name+"-µs")
			}
			v.Metrics = NewMetrics(obs.NewRegistry())
			dirty := event(b.N).Count() + event(b.N+1).Count()
			b.ReportMetric(float64(dirty)/2, "dirty")
			b.ReportMetric(v.Metrics.merged.Sum()/2, "classes")
		})
	}
}

func leaf0(t *topology.Topology) topology.DeviceID { return t.ClusterLeaves(0)[0] }
