package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/clock"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/pec"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// E20Row is one machine-readable point of E20, serialized to
// BENCH_pec.json by dcbench so equivalence-class-engine regressions diff
// cleanly.
type E20Row struct {
	Devices        int     `json:"devices"`
	AtomsPerDevice float64 `json:"atoms_per_device"`
	HopSets        int     `json:"hop_sets"`
	SlowContracts  int64   `json:"slow_path_contracts"`
	// DistinctShapes is the number of interned shapes in the shared atom
	// arena after the cold sweep; DedupRatio is devices per atomization
	// the arena actually performed (builds + locality fallbacks).
	DistinctShapes int     `json:"distinct_shapes"`
	DedupRatio     float64 `json:"dedup_ratio"`
	TrieColdNS     int64   `json:"trie_cold_busy_ns"`
	TrieWarmNS     int64   `json:"trie_warm_busy_ns"`
	// PECColdNS is the per-device cold path (arena disabled);
	// PECSharedColdNS is the same cold sweep through the shared arena.
	PECColdNS       int64 `json:"pec_cold_busy_ns"`
	PECSharedColdNS int64 `json:"pec_cold_shared_busy_ns"`
	PECWarmNS       int64 `json:"pec_warm_busy_ns"`
	// PrewarmShapes / PrewarmWallNS measure Prewarm on a fresh checker:
	// one fleet scan plus a worker pool atomizing each distinct shape.
	PrewarmShapes int     `json:"prewarm_shapes"`
	PrewarmWallNS int64   `json:"prewarm_wall_ns"`
	ColdSpeedup   float64 `json:"cold_shared_speedup"`
	// CacheSpeedup is what PEC's caches buy on the same fleet: shared
	// cold over warm. WarmSpeedup compares engines (warm trie over warm
	// PEC) and is recorded without a floor.
	CacheSpeedup float64 `json:"warm_vs_cold_shared_speedup"`
	WarmSpeedup  float64 `json:"warm_speedup"`
	Identical    bool    `json:"identical"`
	SMTAgree     bool    `json:"smt_agree"`
}

// e20Busy sums the per-device validation times — pure checker work, no
// FIB-pull or scheduling time — so the trie-vs-PEC comparison is about
// the engines, not the harness.
func e20Busy(rep *rcdc.Report) time.Duration {
	var t time.Duration
	for i := range rep.Devices {
		t += rep.Devices[i].Elapsed
	}
	return t
}

// e20Point measures one fleet size: cold and warm full sweeps through the
// trie engine, the per-device PEC path, and the shared-arena PEC path,
// all at Workers=1 (sequential, so busy time has no lock-wait or
// scheduling noise), plus a Prewarm demo on a fresh checker. The synth
// table cache stays OFF: with it on, gigabytes of cached tables plus
// per-pull copies put GC assists inside the timed checker calls and made
// the warm trie sweep look ~2.3x slower than cold at 5080 devices (the
// PR 9 BENCH_pec.json anomaly) — the trie-warm pin gate below keeps that
// harness artifact from coming back. For the same reason the trie legs run
// before the contract memo is switched on: a gigabyte of memoized
// contracts (5080 devices) is marked by a collection the warm sweep's own
// allocations trigger, and since the trie check became a merge-join those
// assists outweigh the check they land in.
//
// Panic gates (failing make pec-smoke):
//
//   - byte identity: every PEC report — per-device cold, shared cold,
//     warm, and post-Prewarm — must render byte-identically to the trie
//     engine's, on the same surface the shard-equivalence gate uses;
//   - SMT agreement: one device per role is cross-checked against the
//     independent bit-vector engine, on both PEC configurations;
//   - cold dedup floor: at >= 2008 devices the shared-arena cold sweep
//     must be >= 2x faster than the per-device cold sweep;
//   - prewarm accounting: Prewarm must build exactly the arena's distinct
//     shapes and leave nothing to build for the following sweep;
//   - speedup floor: when gateSpeedup is set (the largest size of a run),
//     the warm PEC sweep must beat the shared-arena cold PEC sweep of the
//     same fleet by >= 2x — what its caches promise — and the warm trie
//     sweep must stay within 1.5x of the cold one. Warm trie over warm
//     PEC is a column, not a gate: it races two engines on the wall clock,
//     and the trie's cold sweep has no cache to lose to.
func e20Point(n int, gateSpeedup bool) E20Row {
	topo := topology.MustNew(SizedParams("e20", n))
	facts := metadata.FromTopology(topo)
	gen := contracts.NewGenerator(facts)
	synth := bgp.NewSynth(topo, nil)

	pcPriv := &pec.Checker{DisableArena: true, Clock: Clock, Metrics: pecMetrics()}
	pcShared := &pec.Checker{Clock: Clock, Metrics: pecMetrics()}
	trieV := &rcdc.Validator{Workers: 1, Clock: Clock, Metrics: validatorMetrics(), Contracts: gen}
	privV := &rcdc.Validator{Checker: pcPriv, Workers: 1, Clock: Clock, Metrics: validatorMetrics(), Contracts: gen}
	sharedV := &rcdc.Validator{Checker: pcShared, Workers: 1, Clock: Clock, Metrics: validatorMetrics(), Contracts: gen}
	run := func(v *rcdc.Validator) *rcdc.Report {
		rep, err := v.ValidateAll(facts, synth)
		if err != nil {
			panic(err)
		}
		return rep
	}

	trieCold := run(trieV)
	trieWarm := run(trieV)
	gen.EnableMemo()
	privCold := run(privV)
	sharedCold := run(sharedV)
	sharedWarm := run(sharedV)

	// Prewarm demo: a fresh arena builds every distinct shape up front on
	// a worker pool; the sweep that follows must not atomize anything new.
	pcPre := &pec.Checker{Clock: Clock}
	preV := &rcdc.Validator{Checker: pcPre, Workers: 1, Clock: Clock, Contracts: gen}
	preStart := clock.Or(Clock).Now()
	preShapes, err := pcPre.Prewarm(facts, synth, gen, 0)
	if err != nil {
		panic(err)
	}
	preWall := clock.Since(Clock, preStart)
	preRun := run(preV)
	stPre := pcPre.Stats()
	if stPre.ShapeBuilds != int64(preShapes) {
		panic(fmt.Sprintf("e20: prewarm built %d shapes but the sweep atomized %d at %d devices",
			preShapes, stPre.ShapeBuilds, len(topo.Devices)))
	}

	truth := e19Render(trieCold)
	identical := bytes.Equal(truth, e19Render(trieWarm)) &&
		bytes.Equal(truth, e19Render(privCold)) &&
		bytes.Equal(truth, e19Render(sharedCold)) &&
		bytes.Equal(truth, e19Render(sharedWarm)) &&
		bytes.Equal(truth, e19Render(preRun))
	if !identical {
		panic(fmt.Sprintf("e20: PEC report diverges from trie engine at %d devices", len(topo.Devices)))
	}

	smtAgree := true
	seen := make(map[topology.Role]bool)
	for i := range topo.Devices {
		d := &topo.Devices[i]
		if seen[d.Role] {
			continue
		}
		seen[d.Role] = true
		tbl, err := synth.Table(d.ID)
		if err != nil {
			panic(err)
		}
		dc := gen.ForDevice(d.ID)
		smtViol, err := (rcdc.SMTChecker{Metrics: solverMetrics(), Clock: Clock}).CheckDevice(tbl, dc, d.Role)
		if err != nil {
			panic(err)
		}
		for _, pc := range []*pec.Checker{pcPriv, pcShared} {
			pecViol, err := pc.CheckDevice(tbl, dc, d.Role)
			if err != nil {
				panic(err)
			}
			if !sameViolations(smtViol, pecViol) {
				smtAgree = false
			}
		}
	}
	if !smtAgree {
		panic(fmt.Sprintf("e20: PEC verdicts diverge from the SMT engine at %d devices", len(topo.Devices)))
	}

	stPriv := pcPriv.Stats()
	stShared := pcShared.Stats()
	row := E20Row{
		Devices:         len(topo.Devices),
		HopSets:         stPriv.HopSets,
		SlowContracts:   stPriv.SlowPathContracts,
		DistinctShapes:  stShared.Shapes,
		TrieColdNS:      int64(e20Busy(trieCold)),
		TrieWarmNS:      int64(e20Busy(trieWarm)),
		PECColdNS:       int64(e20Busy(privCold)),
		PECSharedColdNS: int64(e20Busy(sharedCold)),
		PECWarmNS:       int64(e20Busy(sharedWarm)),
		PrewarmShapes:   preShapes,
		PrewarmWallNS:   int64(preWall),
		Identical:       identical,
		SMTAgree:        smtAgree,
	}
	if stPriv.Atomizations > 0 {
		row.AtomsPerDevice = float64(stPriv.Atoms) / float64(stPriv.Atomizations)
	}
	if w := stShared.ShapeBuilds + stShared.ShapeFallbacks; w > 0 {
		row.DedupRatio = float64(row.Devices) / float64(w)
	}
	if row.PECSharedColdNS > 0 {
		row.ColdSpeedup = float64(row.PECColdNS) / float64(row.PECSharedColdNS)
	}
	if row.PECWarmNS > 0 {
		row.CacheSpeedup = float64(row.PECSharedColdNS) / float64(row.PECWarmNS)
		row.WarmSpeedup = float64(row.TrieWarmNS) / float64(row.PECWarmNS)
	}
	if row.Devices >= 2008 && row.ColdSpeedup < 2.0 {
		panic(fmt.Sprintf("e20: shared-arena cold speedup %.2fx below the 2.0x floor at %d devices",
			row.ColdSpeedup, row.Devices))
	}
	if gateSpeedup && row.CacheSpeedup < 2.0 {
		panic(fmt.Sprintf("e20: warm PEC sweep only %.2fx faster than the shared cold one, below the 2.0x floor at %d devices",
			row.CacheSpeedup, row.Devices))
	}
	// The 5 ms on top is one GC pause or descheduling: since the check
	// became a merge-join a smoke-size trie sweep is ~1.5 ms of busy time
	// in all, and one hiccup in the warm leg read as 1.9-2.3x.
	if gateSpeedup && row.TrieWarmNS > 3*row.TrieColdNS/2+int64(5*time.Millisecond) {
		panic(fmt.Sprintf("e20: warm trie sweep %.2fx the cold one at %d devices — the table-cache GC artifact is back",
			float64(row.TrieWarmNS)/float64(row.TrieColdNS), row.Devices))
	}
	return row
}

// E20PEC benchmarks the packet-equivalence-class engine against the trie
// engine across fleet sizes: per size, cold full sweeps through the
// per-device path and the shared atom arena (near-clone devices dedupe
// to one atomization per distinct shape), a warm sweep (every device a
// content-hash cache hit — the monitoring steady state), and a Prewarm
// pass that builds all shapes up front on a worker pool. Every point is
// byte-identity-gated against the trie engine and cross-checked against
// the SMT engine on a per-role device sample; sizes >= 2008 must clear a
// 2x shared-cold dedup floor, and the largest point a 2x warm-over-cold
// PEC floor plus a trie warm-vs-cold regression pin; trie-vs-PEC (warm-x)
// is recorded, not gated. Any gate failure
// panics, so dcbench exits non-zero (the pec-smoke CI hook). The
// machine-readable rows back BENCH_pec.json.
func E20PEC(deviceCounts []int) (Result, []E20Row) {
	var b strings.Builder
	rows := make([]E20Row, 0, len(deviceCounts))
	fmt.Fprintf(&b, "%9s %7s %7s %11s %11s %11s %11s %11s %7s %8s %7s %6s %6s\n",
		"devices", "shapes", "dedup", "trie-cold", "trie-warm", "pec-cold", "arena-cold", "pec-warm", "cold-x", "cache-x", "warm-x", "ident", "smt")
	for i, n := range deviceCounts {
		r := e20Point(n, i == len(deviceCounts)-1)
		rows = append(rows, r)
		fmt.Fprintf(&b, "%9d %7d %6.1fx %11s %11s %11s %11s %11s %6.1fx %7.1fx %6.1fx %6v %6v\n",
			r.Devices, r.DistinctShapes, r.DedupRatio,
			time.Duration(r.TrieColdNS).Round(time.Microsecond),
			time.Duration(r.TrieWarmNS).Round(time.Microsecond),
			time.Duration(r.PECColdNS).Round(time.Microsecond),
			time.Duration(r.PECSharedColdNS).Round(time.Microsecond),
			time.Duration(r.PECWarmNS).Round(time.Microsecond),
			r.ColdSpeedup, r.CacheSpeedup, r.WarmSpeedup, r.Identical, r.SMTAgree)
	}
	return Result{
		ID:    "E20",
		Title: "packet-equivalence-class engine vs trie: shared-arena dedup and warm-sweep speedup with byte-identity gates",
		Table: b.String(),
		Notes: "cold sweeps atomize every FIB into destination equivalence classes — per-device (pec-cold) or once per distinct fleet shape through the shared atom arena (arena-cold); warm sweeps answer from content-hash caches (the monitoring steady state); every point renders byte-identically to the trie engine and agrees with the SMT engine on a per-role sample; sizes >= 2008 must clear a 2x shared-cold dedup floor (cold-x) and the largest point a 2x warm-over-shared-cold PEC floor (cache-x) plus a trie warm<=1.5x-cold pin (the synth table cache once put GC assists inside timed checks and made warm sweeps look slower than cold); warm-x (warm trie over warm PEC) is recorded without a floor — violations panic, failing make pec-smoke; on single-core hosts (GOMAXPROCS=1, as in CI) the arena's cold win is pure dedup, with shape-parallel Prewarm adding on multi-core",
	}, rows
}
