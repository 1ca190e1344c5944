package experiments

import (
	"fmt"
	"strings"
	"time"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// E16Row is one machine-readable point of the incremental-validation
// experiment (serialized into BENCH_incremental.json by dcbench).
type E16Row struct {
	Devices       int     `json:"devices"`
	Dirty         int     `json:"dirtyDevices"`
	Whole         int     `json:"wholeDevices"`
	DirtyRows     int     `json:"dirtyRows"`
	DirtyFraction float64 `json:"dirtyFraction"`
	FullSweepNs   int64   `json:"fullSweepNs"`
	DeltaNs       int64   `json:"deltaNs"`
	Speedup       float64 `json:"speedup"`
	Verified      bool    `json:"verified"`
}

// e16Tables snapshots every device's converged table, from scratch, for
// the soundness gate.
func e16Tables(topo *topology.Topology) []*fib.Table {
	s := bgp.NewSynth(topo, nil)
	out := make([]*fib.Table, len(topo.Devices))
	for id := range topo.Devices {
		tbl, err := s.Table(topology.DeviceID(id))
		if err != nil {
			panic(err)
		}
		out[id] = tbl
	}
	return out
}

// e16RequireSuperset is the row-level soundness gate: every FIB row that
// differs between the before and after tables — changed, appeared or
// vanished, the default row included — must lie inside its device's
// scope. It panics on the first row that does not.
func e16RequireSuperset(topo *topology.Topology, before, after []*fib.Table, ds *delta.Set) {
	for id := range topo.Devices {
		sc, dirty := ds.Scope(topology.DeviceID(id))
		if sc.Whole {
			continue
		}
		inScope := make(map[ipnet.Prefix]bool, len(sc.Rows))
		for _, p := range sc.Rows {
			inScope[p] = true
		}
		was := make(map[ipnet.Prefix]string, len(before[id].Entries))
		for _, e := range before[id].Entries {
			was[e.Prefix] = fmt.Sprint(e)
		}
		for _, e := range after[id].Entries {
			if was[e.Prefix] != fmt.Sprint(e) && !inScope[e.Prefix] {
				panic(fmt.Sprintf("e16: device %s row %s changed outside its scope (dirty=%v, %d rows in scope)",
					topo.Device(topology.DeviceID(id)).Name, e.Prefix, dirty, len(sc.Rows)))
			}
			delete(was, e.Prefix)
		}
		for p := range was {
			if !inScope[p] {
				panic(fmt.Sprintf("e16: device %s row %s vanished outside its scope (dirty=%v, %d rows in scope)",
					topo.Device(topology.DeviceID(id)).Name, p, dirty, len(sc.Rows)))
			}
		}
	}
}

// e16RenderReport is the timing-free content of a report.
func e16RenderReport(rep *rcdc.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "checked=%d failures=%d\n", rep.Checked, rep.Failures)
	for i := range rep.Devices {
		d := &rep.Devices[i]
		fmt.Fprintf(&b, "dev=%d contracts=%d\n", d.Device, d.Contracts)
		for _, v := range d.Violations {
			fmt.Fprintf(&b, "  %s\n", v.String())
		}
	}
	return b.String()
}

// E16Incremental measures steady-state incremental revalidation against
// the full sweep it replaces: after one leaf–spine link failure, the
// change journal bounds the blast radius to a few percent of the fleet —
// and, on all but the leaf itself, to one cluster's rows — and delta
// revalidation of just those rows produces the same report an order of
// magnitude faster (single worker, comparable to E2's single-CPU sweep).
//
// Every size runs the soundness gate: every FIB row that actually changed
// must be inside its device's computed scope, and the spliced delta report
// must render identically to a from-scratch full sweep. A violation
// panics, failing the bench-smoke CI target.
func E16Incremental(deviceCounts []int) (Result, []E16Row) {
	var b strings.Builder
	var rows []E16Row
	fmt.Fprintf(&b, "%10s %8s %8s %8s %8s %12s %12s %9s %9s\n",
		"devices", "dirty", "whole", "rows", "dirty%", "fullsweep", "delta", "speedup", "verified")
	for _, n := range deviceCounts {
		p := SizedParams("e16", n)
		topo := topology.MustNew(p)
		facts := metadata.FromTopology(topo)
		v := rcdc.Validator{Workers: 1, Metrics: validatorMetrics()}

		// The baseline: a cold full sweep, as the monitor runs today.
		start := now()
		if _, err := v.ValidateAll(facts, bgp.NewSynth(topo, nil)); err != nil {
			panic(err)
		}
		fullWall := since(start)

		// The monitor's steady state: a persistent generation-cached
		// source and a memoized contract generator, warmed by one sweep.
		cached := bgp.NewSynth(topo, nil)
		cached.EnableTableCache()
		cached.Metrics = synthMetrics()
		gen := contracts.NewGenerator(facts)
		gen.EnableMemo()
		prev, err := v.ValidateAll(facts, cached)
		if err != nil {
			panic(err)
		}

		before := e16Tables(topo)

		genBefore := topo.Generation()
		leaf := topo.ClusterLeaves(0)[0]
		var spine topology.DeviceID = -1
		for _, nb := range topo.Neighbors(leaf) {
			if topo.Device(nb).Role == topology.RoleSpine {
				spine = nb
				break
			}
		}
		if !topo.FailLink(leaf, spine) {
			panic("e16: FailLink failed")
		}

		// The incremental cycle: consume the journal, bound the blast,
		// patch the cached tables, revalidate only the dirty rows.
		prev.Generation = genBefore
		start = now()
		rep, ds, err := v.Revalidate(prev, topo, facts, gen, cached, delta.Options{})
		if err != nil {
			panic(err)
		}
		deltaWall := since(start)
		if ds.Full() {
			panic("e16: expected a bounded blast radius for one leaf-spine failure")
		}

		e16RequireSuperset(topo, before, e16Tables(topo), ds)
		full, err := v.ValidateAll(facts, bgp.NewSynth(topo, nil))
		if err != nil {
			panic(err)
		}
		if got, want := e16RenderReport(rep), e16RenderReport(full); got != want {
			panic(fmt.Sprintf("e16: delta report (checked=%d failures=%d devices=%d) diverges from full sweep (checked=%d failures=%d devices=%d)",
				rep.Checked, rep.Failures, len(rep.Devices),
				full.Checked, full.Failures, len(full.Devices)))
		}

		whole, dirtyRows := 0, 0
		for _, d := range ds.Devices() {
			if sc, _ := ds.Scope(d); sc.Whole {
				whole++
			} else {
				dirtyRows += len(sc.Rows)
			}
		}
		row := E16Row{
			Devices:       len(topo.Devices),
			Dirty:         ds.Count(),
			Whole:         whole,
			DirtyRows:     dirtyRows,
			DirtyFraction: float64(ds.Count()) / float64(len(topo.Devices)),
			FullSweepNs:   fullWall.Nanoseconds(),
			DeltaNs:       deltaWall.Nanoseconds(),
			Speedup:       float64(fullWall) / float64(deltaWall),
			Verified:      true,
		}
		rows = append(rows, row)
		fmt.Fprintf(&b, "%10d %8d %8d %8d %7.1f%% %12s %12s %8.1fx %9v\n",
			row.Devices, row.Dirty, row.Whole, row.DirtyRows, 100*row.DirtyFraction,
			fullWall.Round(time.Millisecond), deltaWall.Round(time.Millisecond),
			row.Speedup, row.Verified)
	}
	return Result{
		ID:    "E16",
		Title: "incremental revalidation after one link failure (change journal + blast radius)",
		Table: b.String(),
		Notes: "steady-state delta cycles revalidate only the blast radius of journaled changes — whole devices where every row moves, a row scope elsewhere; every size runs the row-level soundness gate; acceptance: ≤5% of devices dirty and ≥10x over the full sweep at ~2000 devices",
	}, rows
}
