// Package experiments implements the reproduction harness for every
// quantitative table, figure, and claim in the paper's evaluation (see
// DESIGN.md's experiment index E1–E15). Each experiment returns both a
// machine-readable result and a formatted paper-style text block; the
// dcbench command prints them and the root bench_test.go benchmarks wrap
// the measured kernels.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// SizedParams returns generator parameters for a datacenter of roughly n
// devices with paper-like fan-outs (ToRs dominate the device count, each
// ToR hosting one /24, leaves in 8 planes).
func SizedParams(name string, n int) topology.Params {
	// Fixed shape ratios: per cluster 40 ToRs + 8 leaves; 8 planes x 4
	// spines; 8 regional spines.
	p := topology.Params{
		Name:             name,
		ToRsPerCluster:   40,
		LeavesPerCluster: 8,
		SpinesPerPlane:   4,
		RegionalSpines:   8,
		RSLinksPerSpine:  4,
		PrefixesPerToR:   1,
	}
	fixed := p.LeavesPerCluster*p.SpinesPerPlane + p.RegionalSpines
	perCluster := p.ToRsPerCluster + p.LeavesPerCluster
	p.Clusters = (n - fixed + perCluster - 1) / perCluster
	if p.Clusters < 1 {
		p.Clusters = 1
	}
	return p
}

// Result is one experiment's outcome: an identifier, the formatted rows,
// and free-form notes comparing against the paper.
type Result struct {
	ID    string
	Title string
	Table string
	Notes string
}

func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n%s", r.ID, r.Title, r.Table)
	if r.Notes != "" {
		fmt.Fprintf(&b, "-- %s\n", r.Notes)
	}
	return b.String()
}

// E1PerDevice measures per-device validation latency (§2.6.3: "RCDC takes
// 180ms to verify all contracts on a single device on average") on devices
// whose tables hold several thousand prefixes.
func E1PerDevice(prefixCounts []int, sample int) Result {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %10s %12s %16s %16s\n",
		"prefixes", "contracts", "tableRules", "trie/device", "paper")
	for _, n := range prefixCounts {
		p := SizedParams("e1", 0)
		p.Clusters = (n + p.ToRsPerCluster - 1) / p.ToRsPerCluster
		topo := topology.MustNew(p)
		facts := metadata.FromTopology(topo)
		gen := contracts.NewGenerator(facts)
		src := bgp.NewSynth(topo, nil)
		v := rcdc.Validator{Workers: 1}

		// Sample ToRs spread across clusters (ToRs carry the big tables).
		tors := topo.ToRs()
		step := len(tors) / sample
		if step == 0 {
			step = 1
		}
		var total time.Duration
		var contractsPerDev, rules int
		count := 0
		for i := 0; i < len(tors) && count < sample; i += step {
			tbl, err := src.Table(tors[i])
			if err != nil {
				panic(err)
			}
			dc := gen.ForDevice(tors[i])
			start := now()
			if _, err := v.ValidateDevice(facts, tbl, dc); err != nil {
				panic(err)
			}
			total += since(start)
			contractsPerDev = len(dc.Contracts)
			rules = tbl.Len()
			count++
		}
		fmt.Fprintf(&b, "%10d %10d %12d %16s %16s\n",
			n, contractsPerDev, rules,
			(total / time.Duration(count)).Round(time.Microsecond), "≈180ms")
	}
	return Result{
		ID:    "E1",
		Title: "per-device validation latency (§2.6.3)",
		Table: b.String(),
		Notes: "paper: 180ms average per device with several thousand contracts; the trie engine here is typically faster since the synthetic tables lack vendor parsing overhead — shape matches (linear in contracts)",
	}
}

// E2Sweep validates entire datacenters of increasing size (§1/§2.6.3:
// 10^4 routers in under 3 minutes on a single CPU). Each sweep point is
// validated twice — pinned to one worker (the paper's single-CPU claim)
// and at Workers = NumCPU — so the "embarrassingly parallel" claim is
// exercised and reported as a speedup column.
//
// The parallel leg forces GOMAXPROCS up to NumCPU for its duration: a
// harness launched with GOMAXPROCS=1 would otherwise time-slice the
// worker goroutines on one core and silently report ~1.0x speedup (the
// PR 5 bench gap). Hosts that genuinely cannot exercise multi-core get
// an explicit warning instead of a misleading number.
func E2Sweep(deviceCounts []int) Result {
	var b strings.Builder
	host := runtime.NumCPU()
	configured := runtime.GOMAXPROCS(0)
	par := host
	if configured < host {
		runtime.GOMAXPROCS(host)
		defer runtime.GOMAXPROCS(configured)
		fmt.Fprintf(&b, "note: GOMAXPROCS raised %d -> %d (NumCPU) for the parallel leg\n",
			configured, host)
	}
	if host == 1 {
		fmt.Fprintf(&b, "WARNING: single-CPU host — the parallel leg cannot exercise multi-core; speedup ~1.0x is an environment limit, not a result\n")
	}
	fmt.Fprintf(&b, "%10s %10s %11s %12s %12s %9s %8s\n",
		"devices", "prefixes", "contracts", "wall(1cpu)", fmt.Sprintf("wall(%dw)", par), "speedup", "paper")
	for _, n := range deviceCounts {
		p := SizedParams("e2", n)
		topo := topology.MustNew(p)
		facts := metadata.FromTopology(topo)
		src := bgp.NewSynth(topo, nil)

		v := rcdc.Validator{Workers: 1}
		start := now()
		rep, err := v.ValidateAll(facts, src)
		if err != nil {
			panic(err)
		}
		wall := since(start)

		v.Workers = par
		start = now()
		repPar, err := v.ValidateAll(facts, src)
		if err != nil {
			panic(err)
		}
		wallPar := since(start)

		note := ""
		if n >= 10000 {
			note = "<3min"
		}
		speedup := float64(wall) / float64(wallPar)
		fmt.Fprintf(&b, "%10d %10d %11d %12s %12s %8.2fx %8s\n",
			len(topo.Devices), len(topo.HostedPrefixes()), rep.Checked,
			wall.Round(time.Millisecond), wallPar.Round(time.Millisecond),
			speedup, note)
		if rep.Failures != 0 || repPar.Failures != 0 {
			fmt.Fprintf(&b, "  UNEXPECTED: %d/%d violations on healthy DC\n", rep.Failures, repPar.Failures)
		}
		if par > 1 && wall >= 50*time.Millisecond && speedup < 1.2 {
			fmt.Fprintf(&b, "  WARNING: effective parallelism %.2fx with %d workers — host cores may be throttled or oversubscribed\n",
				speedup, par)
		}
	}
	return Result{
		ID:    "E2",
		Title: "whole-datacenter local validation sweep (§1, §2.6.3)",
		Table: b.String(),
		Notes: fmt.Sprintf("paper: all-pairs redundant routes for a 10^4-router datacenter checked in <3 minutes on one CPU; local checks parallelize embarrassingly — parallel leg ran %d workers on %d host CPUs", par, host),
	}
}

// E3LocalVsGlobal compares local validation against the global
// all-pairs snapshot baseline (§1, §2.4).
func E3LocalVsGlobal(deviceCounts []int) Result {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %10s %12s %12s %9s %14s\n",
		"devices", "pairs", "local", "global", "ratio", "snapshotRules")
	for _, n := range deviceCounts {
		p := SizedParams("e3", n)
		topo := topology.MustNew(p)
		facts := metadata.FromTopology(topo)
		src := bgp.NewSynth(topo, nil)

		v := rcdc.Validator{Workers: 1}
		start := now()
		if _, err := v.ValidateAll(facts, src); err != nil {
			panic(err)
		}
		local := since(start)

		start = now()
		g, err := rcdc.NewGlobalChecker(topo, src)
		if err != nil {
			panic(err)
		}
		fails := g.Check(rcdc.FullRedundancy)
		global := since(start)
		if len(fails) != 0 {
			fmt.Fprintf(&b, "  UNEXPECTED global failures: %d\n", len(fails))
		}
		// Snapshot footprint: total routing rules materialized at once.
		snapshotRules := 0
		for i := range topo.Devices {
			tbl, _ := src.Table(topology.DeviceID(i))
			snapshotRules += tbl.Len()
		}
		fmt.Fprintf(&b, "%10d %10d %12s %12s %8.1fx %14d\n",
			len(topo.Devices), g.Pairs(),
			local.Round(time.Millisecond), global.Round(time.Millisecond),
			float64(global)/float64(local), snapshotRules)
	}
	return Result{
		ID:    "E3",
		Title: "local contracts vs global snapshot verification (§1, §2.4)",
		Table: b.String(),
		Notes: "the global baseline must hold every device's table simultaneously and walk all (ToR, prefix) pairs; local validation touches one device at a time — the paper's core scalability argument",
	}
}
