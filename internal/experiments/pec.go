package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"dcvalidate/internal/bgp"
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
	TrieColdNS     int64   `json:"trie_cold_busy_ns"`
	TrieWarmNS     int64   `json:"trie_warm_busy_ns"`
	PECColdNS      int64   `json:"pec_cold_busy_ns"`
	PECWarmNS      int64   `json:"pec_warm_busy_ns"`
	// CacheSpeedup is what PEC's cache buys on the same fleet: cold over
	// warm. WarmSpeedup compares engines (warm trie over warm PEC) and is
	// recorded without a floor.
	CacheSpeedup float64 `json:"warm_vs_cold_speedup"`
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
// trie engine and the PEC engine, all at Workers=1 (sequential, so busy
// time has no lock-wait or scheduling noise). The synth table cache stays
// OFF: with it on, gigabytes of cached tables plus per-pull copies put GC
// assists inside the timed checker calls and made the warm trie sweep
// look ~2.3x slower than cold at 5080 devices — the trie-warm pin gate
// below keeps that harness artifact from coming back. For the same reason
// the trie legs run before the contract memo is switched on: a gigabyte of
// memoized contracts (5080 devices) is marked by a collection the warm
// sweep's own allocations trigger, and since the trie check became a
// merge-join those assists outweigh the check they land in.
//
// Panic gates (failing make pec-smoke):
//
//   - byte identity: every PEC report — cold and warm — must render
//     byte-identically to the trie engine's, on the same surface the
//     shard-coordinator gate uses;
//   - SMT agreement: one device per role is cross-checked against the
//     independent bit-vector engine;
//   - speedup floor: when gateSpeedup is set (the largest size of a run),
//     the warm PEC sweep must beat the cold PEC sweep of the same fleet
//     by >= 2x — what its cache promises — and the warm trie sweep must
//     stay within 1.5x of the cold one. Warm trie over warm PEC is a
//     column, not a gate: it races two engines on the wall clock, and the
//     trie's cold sweep has no cache to lose to.
func e20Point(n int, gateSpeedup bool) E20Row {
	topo := topology.MustNew(SizedParams("e20", n))
	facts := metadata.FromTopology(topo)
	gen := contracts.NewGenerator(facts)
	synth := bgp.NewSynth(topo, nil)

	pc := &pec.Checker{Clock: Clock, Metrics: pecMetrics()}
	trieV := &rcdc.Validator{Workers: 1, Clock: Clock, Metrics: validatorMetrics(), Contracts: gen}
	pecV := &rcdc.Validator{Checker: pc, Workers: 1, Clock: Clock, Metrics: validatorMetrics(), Contracts: gen}
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
	pecCold := run(pecV)
	pecWarm := run(pecV)

	truth := e19Render(trieCold)
	identical := bytes.Equal(truth, e19Render(trieWarm)) &&
		bytes.Equal(truth, e19Render(pecCold)) &&
		bytes.Equal(truth, e19Render(pecWarm))
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
		pecViol, err := pc.CheckDevice(tbl, dc, d.Role)
		if err != nil {
			panic(err)
		}
		if !sameViolations(smtViol, pecViol) {
			smtAgree = false
		}
	}
	if !smtAgree {
		panic(fmt.Sprintf("e20: PEC verdicts diverge from the SMT engine at %d devices", len(topo.Devices)))
	}

	st := pc.Stats()
	row := E20Row{
		Devices:       len(topo.Devices),
		HopSets:       st.HopSets,
		SlowContracts: st.SlowPathContracts,
		TrieColdNS:    int64(e20Busy(trieCold)),
		TrieWarmNS:    int64(e20Busy(trieWarm)),
		PECColdNS:     int64(e20Busy(pecCold)),
		PECWarmNS:     int64(e20Busy(pecWarm)),
		Identical:     identical,
		SMTAgree:      smtAgree,
	}
	if st.Atomizations > 0 {
		row.AtomsPerDevice = float64(st.Atoms) / float64(st.Atomizations)
	}
	if row.PECWarmNS > 0 {
		row.CacheSpeedup = float64(row.PECColdNS) / float64(row.PECWarmNS)
		row.WarmSpeedup = float64(row.TrieWarmNS) / float64(row.PECWarmNS)
	}
	if gateSpeedup && row.CacheSpeedup < 2.0 {
		panic(fmt.Sprintf("e20: warm PEC sweep only %.2fx faster than the cold one, below the 2.0x floor at %d devices",
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
// engine across fleet sizes: per size, a cold full sweep through each
// engine and a warm one (for PEC every device a content-hash cache hit —
// the monitoring steady state). Every point is byte-identity-gated
// against the trie engine and cross-checked against the SMT engine on a
// per-role device sample; the largest point must clear a 2x warm-over-cold
// PEC floor plus a trie warm-vs-cold regression pin; trie-vs-PEC (warm-x)
// is recorded, not gated. Any gate failure panics, so dcbench exits
// non-zero (the pec-smoke CI hook). The machine-readable rows back
// BENCH_pec.json.
func E20PEC(deviceCounts []int) (Result, []E20Row) {
	var b strings.Builder
	rows := make([]E20Row, 0, len(deviceCounts))
	fmt.Fprintf(&b, "%9s %7s %11s %11s %11s %11s %8s %7s %6s %6s\n",
		"devices", "atoms", "trie-cold", "trie-warm", "pec-cold", "pec-warm", "cache-x", "warm-x", "ident", "smt")
	for i, n := range deviceCounts {
		r := e20Point(n, i == len(deviceCounts)-1)
		rows = append(rows, r)
		fmt.Fprintf(&b, "%9d %7.1f %11s %11s %11s %11s %7.1fx %6.1fx %6v %6v\n",
			r.Devices, r.AtomsPerDevice,
			time.Duration(r.TrieColdNS).Round(time.Microsecond),
			time.Duration(r.TrieWarmNS).Round(time.Microsecond),
			time.Duration(r.PECColdNS).Round(time.Microsecond),
			time.Duration(r.PECWarmNS).Round(time.Microsecond),
			r.CacheSpeedup, r.WarmSpeedup, r.Identical, r.SMTAgree)
	}
	return Result{
		ID:    "E20",
		Title: "packet-equivalence-class engine vs trie: cold and warm sweeps with byte-identity gates",
		Table: b.String(),
		Notes: "cold PEC sweeps atomize every FIB into destination equivalence classes; warm sweeps answer from the content-hash cache (the monitoring steady state); every point renders byte-identically to the trie engine and agrees with the SMT engine on a per-role sample; the largest point must clear a 2x warm-over-cold PEC floor (cache-x) plus a trie warm<=1.5x-cold pin (the synth table cache once put GC assists inside timed checks and made warm sweeps look slower than cold); warm-x (warm trie over warm PEC) is recorded without a floor — violations panic, failing make pec-smoke",
	}, rows
}
