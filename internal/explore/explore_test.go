package explore

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/topology"
)

func smallParams() topology.Params {
	return topology.Params{
		Name: "x", Clusters: 2, ToRsPerCluster: 2, LeavesPerCluster: 2,
		SpinesPerPlane: 1, RegionalSpines: 2, RSLinksPerSpine: 1,
	}
}

func TestSymmetryFindsGenerators(t *testing.T) {
	topo := topology.MustNew(smallParams())
	sym := ComputeSymmetry(topo, nil, false)
	if sym.Generators() == 0 {
		t.Fatal("healthy symmetric Clos should have verified automorphisms")
	}
}

func TestSymmetryRespectsConfigAsymmetry(t *testing.T) {
	topo := topology.MustNew(smallParams())
	cfg := map[topology.DeviceID]*bgp.DeviceConfig{
		topo.ClusterToRs(0)[0]: {RejectDefaultIn: true},
	}
	sym := ComputeSymmetry(topo, cfg, false)
	full := ComputeSymmetry(topo, nil, false)
	if sym.Generators() >= full.Generators() {
		t.Fatalf("config on one ToR must kill some generators: %d >= %d",
			sym.Generators(), full.Generators())
	}
	// The configured ToR is c0-t0-0: swapping clusters or ToR indices moves
	// it, so only symmetries fixing it survive.
	for _, g := range sym.gens {
		if img := g.dev[topo.ClusterToRs(0)[0]]; img != topo.ClusterToRs(0)[0] {
			t.Fatalf("surviving generator moves the configured ToR to %d", img)
		}
	}
}

func TestSymmetryDisabledByECMPTruncation(t *testing.T) {
	topo := topology.MustNew(smallParams())
	cfg := map[topology.DeviceID]*bgp.DeviceConfig{}
	for _, l := range topo.Leaves() {
		cfg[l] = &bgp.DeviceConfig{MaxECMPPaths: 1}
	}
	if got := ComputeSymmetry(topo, cfg, false).Generators(); got != 0 {
		t.Fatalf("MaxECMPPaths without union-ECMP must disable pruning, got %d generators", got)
	}
	if got := ComputeSymmetry(topo, cfg, true).Generators(); got == 0 {
		t.Fatal("union-ECMP restores symmetry under MaxECMPPaths")
	}
}

func TestSymmetryRespectsDegradedBase(t *testing.T) {
	topo := topology.MustNew(smallParams())
	full := ComputeSymmetry(topo, nil, false).Generators()
	topo.SetLinkUp(topo.LinksOf(topo.ClusterToRs(0)[0])[0], false)
	sym := ComputeSymmetry(topo, nil, false)
	if sym.Generators() >= full {
		t.Fatalf("a degraded base link must kill some generators: %d >= %d", sym.Generators(), full)
	}
}

// TestPrunedMatchesBruteK1 cross-checks the pruned k=1 sweep against brute
// force: the union of the violating classes' orbits must be exactly the
// brute-force violating scenario set, and the weights must account for it.
func TestPrunedMatchesBruteK1(t *testing.T) {
	topo := topology.MustNew(smallParams())
	ex := &Explorer{Topo: topo, Opts: Options{K: 1, Workers: 2}}
	pruned, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	exb := &Explorer{Topo: topo, Opts: Options{K: 1, NoPrune: true, Workers: 2}}
	brute, err := exb.Run()
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Total != brute.Total {
		t.Fatalf("scenario totals diverge: %d vs %d", pruned.Total, brute.Total)
	}
	if pruned.Explored >= brute.Explored {
		t.Fatalf("pruning had no effect: %d explored vs brute %d", pruned.Explored, brute.Explored)
	}

	bruteViolating := map[string]bool{}
	for _, sc := range brute.Violating {
		bruteViolating[sc.Key] = true
	}
	sym := ComputeSymmetry(topo, nil, false)
	orbitUnion := map[string]bool{}
	var weight int
	for _, sc := range pruned.Violating {
		weight += sc.Weight
		sym.Orbit(sc.Faults, func(k string) { orbitUnion[k] = true })
	}
	if weight != len(brute.Violating) {
		t.Fatalf("violating weight %d != brute violating count %d", weight, len(brute.Violating))
	}
	if len(orbitUnion) != len(bruteViolating) {
		t.Fatalf("orbit union size %d != brute violating size %d", len(orbitUnion), len(bruteViolating))
	}
	for k := range orbitUnion {
		if !bruteViolating[k] {
			t.Fatalf("orbit member %s not violating under brute force", k)
		}
	}
}

// TestMinimalSetsReplay locks the delta-debugging contract: every reported
// minimal set still violates its contract when replayed, and dropping any
// single fault stops the violation (local minimality).
func TestMinimalSetsReplay(t *testing.T) {
	topo := topology.MustNew(smallParams())
	ex := &Explorer{Topo: topo, Opts: Options{K: 2, OnlyK: true, Links: true, Workers: 2}}
	res, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MinimalSets) == 0 {
		t.Fatal("k=2 link exploration should produce violating minimal sets")
	}
	w, err := newWorker(ex, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range res.MinimalSets {
		keys, err := w.violationKeys(ms.Faults)
		if err != nil {
			t.Fatal(err)
		}
		if !keys[ms.ContractKey] {
			t.Fatalf("minimal set %v does not violate %s on replay", ms.Faults, ms.ContractKey)
		}
		if len(ms.Faults) > 1 {
			for i := range ms.Faults {
				sub := append(append([]Fault(nil), ms.Faults[:i]...), ms.Faults[i+1:]...)
				keys, err := w.violationKeys(sub)
				if err != nil {
					t.Fatal(err)
				}
				if keys[ms.ContractKey] {
					t.Fatalf("minimal set %v not minimal: still violates %s without %v",
						ms.Faults, ms.ContractKey, ms.Faults[i])
				}
			}
		}
	}
}

// TestTelemetryFaultsDegradeNotViolate is the triage-routing guarantee: a
// scenario that only blinds the management plane must never be reported as
// a contract violation.
func TestTelemetryFaultsDegradeNotViolate(t *testing.T) {
	topo := topology.MustNew(smallParams())
	ex := &Explorer{Topo: topo, Opts: Options{K: 1, Links: true, Telemetry: true, Workers: 2}}
	res, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedOnly == 0 {
		t.Fatal("telemetry faults should produce degraded-only classes")
	}
	for _, sc := range res.Violating {
		for _, f := range sc.Faults {
			if f.Kind == FaultTelemetry {
				t.Fatalf("telemetry-only fault reported as violating: %v", sc.Faults)
			}
		}
	}
}

func TestOrderedPOR(t *testing.T) {
	// A wider, redundant topology: with two spines per plane most blast
	// radii stay bounded, so independent fault pairs exist for POR to
	// collapse.
	topo := topology.MustNew(topology.Params{
		Name: "xw", Clusters: 2, ToRsPerCluster: 4, LeavesPerCluster: 4,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
	})
	ex := &Explorer{Topo: topo, Opts: Options{K: 2, OnlyK: true, Links: true, Ordered: true, Workers: 4}}
	res, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces == nil {
		t.Fatal("ordered mode must report trace stats")
	}
	if res.Traces.Canonical == 0 || uint64(res.Traces.Canonical) > res.Traces.Total {
		t.Fatalf("canonical trace count %d out of range (total %d)",
			res.Traces.Canonical, res.Traces.Total)
	}
	// Every class contributes at least one canonical trace (the sorted
	// order) and at most k! of them.
	if res.Traces.Canonical < res.Explored {
		t.Fatalf("POR dropped a class entirely: %d canonical < %d classes",
			res.Traces.Canonical, res.Explored)
	}
	if res.Traces.Canonical >= res.Explored*2 {
		t.Fatalf("POR reduced nothing: %d canonical for %d classes", res.Traces.Canonical, res.Explored)
	}

	// One worker explores the same classes into the same Result.
	seq := &Explorer{Topo: topo, Opts: ex.Opts}
	seq.Opts.Workers = 1
	one, err := seq.Run()
	if err != nil {
		t.Fatal(err)
	}
	one.Elapsed, res.Elapsed = 0, 0
	if !reflect.DeepEqual(one, res) {
		t.Fatalf("Workers 1 and 4 disagree:\n%+v\n%+v", one, res)
	}
}

func TestAccountingInvariant(t *testing.T) {
	topo := topology.MustNew(smallParams())
	for _, noPrune := range []bool{false, true} {
		ex := &Explorer{Topo: topo, Opts: Options{K: 2, NoPrune: noPrune, Workers: 2}}
		res, err := ex.Run()
		if err != nil {
			t.Fatal(err)
		}
		if uint64(res.Explored)+res.Pruned != res.Total {
			t.Fatalf("noPrune=%v: %d + %d != %d", noPrune, res.Explored, res.Pruned, res.Total)
		}
		if noPrune && res.Pruned != 0 {
			t.Fatalf("brute force pruned %d scenarios", res.Pruned)
		}
	}
}

// TestBlackoutGatesRuns pins the blackout on a cached source that offers
// runs: a telemetry-dead device inside a link fault's blast radius — one
// dirty as a whole, one scoped to the flipped ToR's rows — must fail its
// pull and keep its baseline verdict, not be validated from runs the
// wrapper let through.
func TestBlackoutGatesRuns(t *testing.T) {
	topo := topology.MustNew(smallParams())
	w, err := newWorker(&Explorer{Topo: topo, Opts: Options{K: 1, Links: true, Telemetry: true}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.src.Synth.RunPrefixes() == nil {
		t.Fatal("the worker's cached synth offers no runs; the test checks nothing")
	}
	tor, scoped := w.topo.ClusterToRs(0)[0], w.topo.ClusterToRs(1)[0]
	link, ok := w.topo.LinkBetween(tor, w.topo.ClusterLeaves(0)[0])
	if !ok {
		t.Fatal("no ToR–leaf link")
	}
	prev := w.base()
	undo, _ := applyFaults(w.topo, []Fault{{Kind: FaultLink, Link: link.ID}})
	defer undo()
	w.src.dead = map[topology.DeviceID]bool{tor: true, scoped: true}
	rep, ds, err := w.revalidate(prev)
	if ds.Full() || !ds.Contains(tor) || !ds.Contains(scoped) {
		t.Fatalf("blast radius full=%v, contains the dead devices: %v %v", ds.Full(), ds.Contains(tor), ds.Contains(scoped))
	}
	if sc, _ := ds.Scope(scoped); sc.Whole {
		t.Fatal("the second dead device is dirty as a whole; want a row scope")
	}
	for _, d := range []topology.DeviceID{tor, scoped} {
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("telemetry blackout on device %d", d)) {
			t.Fatalf("device %d: blackout error not surfaced: %v", d, err)
		}
	}
	failures := 0
	for i := range rep.Devices {
		dr := &rep.Devices[i]
		if dr.Device == tor || dr.Device == scoped {
			if !reflect.DeepEqual(*dr, prev.Devices[i]) {
				t.Errorf("dead device %s was re-validated: %+v, baseline %+v", dr.Name, *dr, prev.Devices[i])
			}
			continue
		}
		failures += len(dr.Violations)
	}
	if failures == 0 {
		t.Fatal("the link fault moved no other device's verdict; the test checks nothing")
	}
}

// TestPruningRatioFloorK2 is the acceptance floor for symmetry pruning
// being worth its overhead: on a healthy 2-pod Clos the k=2 sweep must
// find verified automorphisms and explore fewer than half as many
// classes as there are scenarios.
func TestPruningRatioFloorK2(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Name: "x", Clusters: 2, ToRsPerCluster: 2, LeavesPerCluster: 4,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
	})
	res, err := (&Explorer{Topo: topo, Opts: Options{K: 2, OnlyK: true, Workers: 2}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Generators == 0 {
		t.Fatal("healthy symmetric Clos verified no automorphisms")
	}
	if r := res.PruningRatio(); r <= 2 {
		t.Fatalf("k=2 pruning ratio %.2fx <= 2x (%d classes for %d scenarios)", r, res.Explored, res.Total)
	}
	t.Logf("k=2: %d scenarios, %d classes, %d generators, ratio %.1fx",
		res.Total, res.Explored, res.Generators, res.PruningRatio())
}
