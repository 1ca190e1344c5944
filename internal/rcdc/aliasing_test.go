package rcdc

import (
	"bytes"
	"fmt"
	"testing"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/topology"
)

// renderViolations renders the full violation state of a report,
// including the per-contract next-hop sets a caller could alias.
func renderViolations(rep *Report) []byte {
	var buf bytes.Buffer
	for i := range rep.Devices {
		for _, v := range rep.Devices[i].Violations {
			fmt.Fprintf(&buf, "%s hops=%v\n", v.String(), v.Contract.NextHops)
		}
	}
	return buf.Bytes()
}

// TestViolationsCopyOnReturn pins the copy-on-return contract of
// Report.Violations: the caller may mutate the returned slice, the
// violations in it, and their next-hop sets without corrupting the
// report the serving layer caches — or the contract sets a memoizing
// generator shares across validations.
func TestViolationsCopyOnReturn(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 2, ToRsPerCluster: 3, LeavesPerCluster: 2,
		SpinesPerPlane: 1, RegionalSpines: 2, RSLinksPerSpine: 1,
		PrefixesPerToR: 1,
	})
	// Break enough links that violations carry non-empty Missing sets.
	tor := topo.ClusterToRs(0)[0]
	topo.FailLink(tor, topo.ClusterLeaves(0)[0])
	facts := metadata.FromTopology(topo)
	gen := contracts.NewGenerator(facts)
	gen.EnableMemo()

	v := Validator{Workers: 2}
	synth := bgp.NewSynth(topo, nil)
	full, err := v.ValidateAll(facts, synth)
	if err != nil {
		t.Fatal(err)
	}
	// Revalidate the failed ToR through the memoizing generator so its
	// violations reference the shared, cached contract sets.
	rep, err := v.ValidateDelta(full, facts, gen, synth, []topology.DeviceID{tor})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures == 0 {
		t.Fatal("expected violations after link failure")
	}
	before := renderViolations(rep)
	genBefore := fmt.Sprintf("%v", gen.ForDevice(tor))

	got := rep.Violations()
	if len(got) != rep.Failures {
		t.Fatalf("Violations() returned %d, want %d", len(got), rep.Failures)
	}
	// Vandalize everything the caller can reach through the return value.
	for i := range got {
		got[i].Device = -99
		got[i].Kind = 200
		for j := range got[i].Missing {
			got[i].Missing[j] = -1
		}
		for j := range got[i].Unexpected {
			got[i].Unexpected[j] = -1
		}
		for j := range got[i].Contract.NextHops {
			got[i].Contract.NextHops[j] = -1
		}
	}

	if after := renderViolations(rep); !bytes.Equal(before, after) {
		t.Fatalf("mutating Violations() corrupted the report:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
	if genAfter := fmt.Sprintf("%v", gen.ForDevice(tor)); genBefore != genAfter {
		t.Fatalf("mutating Violations() corrupted memoized contracts:\n%s\nvs\n%s", genBefore, genAfter)
	}
	// A second flatten must match the first, pre-vandalism.
	second := rep.Violations()
	var a, b bytes.Buffer
	for _, v := range second {
		fmt.Fprintf(&a, "%s hops=%v\n", v.String(), v.Contract.NextHops)
	}
	b.Write(before)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("second Violations() call diverges from the report")
	}
}

// TestScopedSpliceNeverWritesPrev pins the copy-on-splice contract of the
// row-scoped delta: a contract-level splice builds the device's new
// violation list in fresh memory, so neither the splice itself nor a
// caller scribbling over the new report can reach the previous report —
// which the serving layer may still be answering queries from.
func TestScopedSpliceNeverWritesPrev(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 2, ToRsPerCluster: 3, LeavesPerCluster: 2,
		SpinesPerPlane: 1, RegionalSpines: 2, RSLinksPerSpine: 2,
		PrefixesPerToR: 1,
	})
	// Outstanding violations across the plane: the leaf, the plane spine
	// and the other cluster's plane leaf all miss the ToR's prefix.
	topo.FailLink(topo.ClusterToRs(0)[0], topo.ClusterLeaves(0)[0])
	facts := metadata.FromTopology(topo)
	gen := contracts.NewGenerator(facts)
	gen.EnableMemo()
	synth := bgp.NewSynth(topo, nil)
	synth.EnableTableCache()
	v := Validator{Workers: 2}
	prev, err := v.ValidateAll(facts, synth)
	if err != nil {
		t.Fatal(err)
	}
	before := renderViolations(prev)

	// A second ToR–leaf failure on the same plane: every device that holds
	// a violation is dirty again, in one row.
	since := topo.Generation()
	topo.FailLink(topo.ClusterToRs(1)[1], topo.ClusterLeaves(1)[0])
	changes, _ := topo.ChangesSince(since)
	ds := delta.Compute(topo, changes, delta.Options{})
	synth.RefreshDelta(ds, since)
	rep, err := v.ValidateScoped(prev, facts, gen, synth, ds)
	if err != nil {
		t.Fatal(err)
	}
	if after := renderViolations(prev); !bytes.Equal(before, after) {
		t.Fatalf("the splice wrote into the previous report:\n--- before ---\n%s--- after ---\n%s", before, after)
	}

	spliced := 0
	for i := range rep.Devices {
		sc, dirty := ds.Scope(rep.Devices[i].Device)
		old, fresh := prev.Devices[i].Violations, rep.Devices[i].Violations
		if !dirty || sc.Whole || len(old) == 0 || len(fresh) <= len(old) {
			continue
		}
		spliced++ // kept its old violations and gained one: a real splice
		for j := range fresh {
			fresh[j] = Violation{Device: -99}
		}
		_ = append(fresh[:0], Violation{Device: -98})
	}
	if spliced == 0 {
		t.Fatal("no row-scoped device kept old violations and gained new ones; the test exercises nothing")
	}
	if after := renderViolations(prev); !bytes.Equal(before, after) {
		t.Fatalf("scribbling over the spliced report reached the previous one:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
}
