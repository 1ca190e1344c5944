package dcvalidate

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// incParams is the equivalence-test topology: multi-spine planes so
// single failures have bounded blast radii, small enough that a full
// sweep per step stays cheap.
func incParams() TopologyParams {
	return TopologyParams{
		Name: "inc", Clusters: 4, ToRsPerCluster: 6, LeavesPerCluster: 4,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
		PrefixesPerToR: 1,
	}
}

// renderReport renders the semantic content of a report — everything
// except wall-clock timing — for byte comparison.
func renderReport(rep *Report) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "checked=%d failures=%d highrisk=%d devices=%d\n",
		rep.Checked, rep.Failures, rep.HighRisk(), len(rep.Devices))
	for i := range rep.Devices {
		d := &rep.Devices[i]
		fmt.Fprintf(&buf, "device %d %s %s: %d contracts\n", d.Device, d.Name, d.Role, d.Contracts)
		for _, v := range d.Violations {
			fmt.Fprintf(&buf, "  %s\n", v.String())
		}
	}
	return buf.Bytes()
}

// renderFields renders every field of every violation, including the ones
// Violation.String leaves out (Remaining, RulePrefix) but the query API
// serves.
func renderFields(rep *Report) []byte {
	var buf bytes.Buffer
	for i := range rep.Devices {
		for _, v := range rep.Devices[i].Violations {
			fmt.Fprintf(&buf, "%s rule=%s remaining=%d expects=%v\n", v.String(), v.RulePrefix, v.Remaining, v.Contract.NextHops)
		}
	}
	return buf.Bytes()
}

// metricValue reads one unlabelled series of a registry (0 when absent).
func metricValue(reg *MetricsRegistry, name string) float64 {
	for _, s := range reg.Snapshot() {
		if s.Name == name && len(s.Labels) == 0 {
			return s.Value
		}
	}
	return 0
}

// TestIncrementalEquivalence is the incremental-validation property test:
// after every step of a random seeded sequence of link failures, session
// shutdowns, restores, (journaled) config edits and steps that change
// nothing, delta revalidation against the previous report produces a report
// byte-identical to a from-scratch full sweep of the same state — with the
// table caches unsharded and split over 2 and 5 shards. The delta leg runs
// the row-scoped path — contract-level splices into reports that already
// hold violations — and the test requires that it did, rather than quietly
// falling back to whole devices. Each step also asks the serving path, which
// refreshes its own report over the same source, and a step that changed
// nothing must be answered from its cache.
func TestIncrementalEquivalence(t *testing.T) {
	for _, shards := range []int{0, 2, 5} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { incrementalEquivalence(t, shards) })
	}
}

func incrementalEquivalence(t *testing.T, shards int) {
	inc, err := NewDatacenter(incParams())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewDatacenter(incParams())
	if err != nil {
		t.Fatal(err)
	}
	if shards > 0 {
		inc.EnableSharding(shards)
	}
	reg := inc.Metrics()
	opts := ValidateOptions{Workers: 4}
	rng := rand.New(rand.NewSource(2019))
	links := len(inc.Topo.Links)

	var prev *Report
	scopedOverViolations := 0 // steps that spliced row scopes into a violating report
	for step := 0; step < 60; step++ {
		// Mutate both datacenters identically.
		genBefore := inc.Topo.Generation()
		switch op := rng.Intn(11); {
		case op < 4:
			l := rng.Intn(links)
			up := rng.Intn(2) == 0
			inc.Topo.SetLinkUp(inc.Topo.Links[l].ID, up)
			ref.Topo.SetLinkUp(ref.Topo.Links[l].ID, up)
		case op < 8:
			l := rng.Intn(links)
			up := rng.Intn(2) == 0
			inc.Topo.SetSessionUp(inc.Topo.Links[l].ID, up)
			ref.Topo.SetSessionUp(ref.Topo.Links[l].ID, up)
		case op == 8:
			inc.Topo.RestoreAll()
			ref.Topo.RestoreAll()
		case op == 9:
			// A journaled config edit: ECMP truncation on a random ToR.
			name := inc.Topo.Device(inc.Topo.ToRs()[rng.Intn(len(inc.Topo.ToRs()))]).Name
			keep := 1 + rng.Intn(3)
			if err := inc.SetDeviceConfig(name, &DeviceConfig{MaxECMPPaths: keep}); err != nil {
				t.Fatal(err)
			}
			if err := ref.SetDeviceConfig(name, &DeviceConfig{MaxECMPPaths: keep}); err != nil {
				t.Fatal(err)
			}
		default:
			// No mutation: the delta is empty and the serving path must hit.
		}

		gen := inc.Topo.Generation()
		scopedBefore := metricValue(reg, "dcv_delta_scoped_devices_total")
		violating := prev != nil && prev.Failures > 0
		prev, err = inc.ValidateDelta(prev, opts)
		if err != nil {
			t.Fatalf("step %d: delta: %v", step, err)
		}
		if violating && metricValue(reg, "dcv_delta_scoped_devices_total") > scopedBefore {
			scopedOverViolations++
		}
		if prev.Generation != gen {
			t.Fatalf("step %d: report generation %d, want %d", step, prev.Generation, gen)
		}
		full, err := ref.Validate(ValidateOptions{Workers: 4})
		if err != nil {
			t.Fatalf("step %d: full: %v", step, err)
		}
		got, want := renderReport(prev), renderReport(full)
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d: delta report diverges from full sweep:\n--- delta ---\n%s\n--- full ---\n%s",
				step, firstDiffWindow(got, want), firstDiffWindow(want, got))
		}
		if got, want := renderFields(prev), renderFields(full); !bytes.Equal(got, want) {
			t.Fatalf("step %d: delta violations diverge from full sweep in an unrendered field:\n--- delta ---\n%s\n--- full ---\n%s",
				step, firstDiffWindow(got, want), firstDiffWindow(want, got))
		}
		if len(prev.Devices) != len(inc.Topo.Devices) || prev.Checked == 0 {
			t.Fatalf("step %d: degenerate report (%d devices, %d checked)",
				step, len(prev.Devices), prev.Checked)
		}

		sum, err := inc.Summary()
		if err != nil {
			t.Fatalf("step %d: summary: %v", step, err)
		}
		if sum.Generation != gen || sum.Violations != full.Failures || sum.Contracts != full.Checked || sum.Shards != max(shards, 1) {
			t.Fatalf("step %d: summary %+v, want generation %d, %d violations of %d contracts, over %d shard(s)",
				step, sum, gen, full.Failures, full.Checked, max(shards, 1))
		}
		if unchanged := step > 0 && gen == genBefore; sum.Cached != unchanged {
			t.Fatalf("step %d: summary cached = %v, generation moved = %v", step, sum.Cached, !unchanged)
		}
	}
	if scopedOverViolations < 10 {
		t.Fatalf("only %d steps spliced row scopes into a violating report; the scoped path is not being driven", scopedOverViolations)
	}
	if patched := metricValue(reg, "dcv_bgp_synth_rows_patched_total"); patched == 0 {
		t.Fatal("no cached row was ever patched")
	}
}

// TestShardingOrderIndependent: sharding swaps the table caches under the
// serving path and nothing else, so the engine chosen and the registry
// created after EnableSharding still drive — and observe — its sweeps.
func TestShardingOrderIndependent(t *testing.T) {
	dc, err := NewDatacenter(incParams())
	if err != nil {
		t.Fatal(err)
	}
	dc.EnableSharding(2)
	dc.SetDefaultEngine(EnginePEC)
	reg := dc.Metrics()
	if _, err := dc.Summary(); err != nil {
		t.Fatal(err)
	}
	topo := dc.Topo
	if err := dc.FailLink(topo.Device(topo.ClusterToRs(0)[0]).Name, topo.Device(topo.ClusterLeaves(0)[0]).Name); err != nil {
		t.Fatal(err)
	}
	sum, err := dc.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Shards != 2 || sum.Violations == 0 {
		t.Fatalf("summary after the flip: %+v", sum)
	}
	for _, name := range []string{
		"dcv_pec_atomize_seconds_count",        // the sweeps ran PEC
		"dcv_delta_scoped_devices_total",       // the flip was planned by rows
		"dcv_rcdc_delta_contracts_checked_sum", // and re-checked by the engine's validator
	} {
		if metricValue(reg, name) == 0 {
			t.Errorf("%s did not move under sharding", name)
		}
	}
}

// TestIncrementalEquivalenceDefaultRowTrap walks the one verdict
// dependency that reaches outside a contract's own rows: a MissingRoute
// violation reports the next-hop count of the default row it falls through
// to. A leaf holds such a violation (its ToR link is down); then a plane
// spine loses its regional uplinks one by one, which puts only the leaf's
// *default row* in scope. The spliced report must still track the
// violation's Remaining count, byte for byte, at every step — and back.
func TestIncrementalEquivalenceDefaultRowTrap(t *testing.T) {
	inc, err := NewDatacenter(incParams())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewDatacenter(incParams())
	if err != nil {
		t.Fatal(err)
	}
	reg := inc.Metrics()
	topo := inc.Topo
	name := func(id DeviceID) string { return topo.Device(id).Name }
	tor, leaf := topo.ClusterToRs(0)[0], topo.ClusterLeaves(0)[0]
	spine := topo.Spines()[0] // plane 0, like leaf
	var uplinks []DeviceID
	for _, n := range topo.Neighbors(spine) {
		if topo.Device(n).Role == topology.RoleRegionalSpine {
			uplinks = append(uplinks, n)
		}
	}
	if len(uplinks) < 2 {
		t.Fatalf("spine %s has %d regional uplinks, want at least 2", name(spine), len(uplinks))
	}

	type op struct {
		what string
		do   func(dc *Datacenter) error
	}
	ops := []op{{"fail " + name(tor) + "—" + name(leaf), func(dc *Datacenter) error { return dc.FailLink(name(tor), name(leaf)) }}}
	for _, rs := range uplinks {
		rs := rs
		ops = append(ops, op{"fail " + name(spine) + "—" + name(rs), func(dc *Datacenter) error { return dc.FailLink(name(spine), name(rs)) }})
	}
	for _, rs := range uplinks {
		rs := rs
		ops = append(ops, op{"restore " + name(spine) + "—" + name(rs), func(dc *Datacenter) error { return dc.RestoreLink(name(spine), name(rs)) }})
	}

	leafRemaining := func(rep *Report) int {
		for _, v := range rep.Devices[leaf].Violations {
			if v.Kind == rcdc.MissingRoute {
				return v.Remaining
			}
		}
		return -1
	}
	prev, err := inc.ValidateDelta(nil, ValidateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, o := range ops {
		if err := o.do(inc); err != nil {
			t.Fatal(err)
		}
		if err := o.do(ref); err != nil {
			t.Fatal(err)
		}
		whole := metricValue(reg, "dcv_delta_whole_devices_total")
		prev, err = inc.ValidateDelta(prev, ValidateOptions{})
		if err != nil {
			t.Fatalf("%s: delta: %v", o.what, err)
		}
		full, err := ref.Validate(ValidateOptions{})
		if err != nil {
			t.Fatalf("%s: full: %v", o.what, err)
		}
		if got, want := renderReport(prev), renderReport(full); !bytes.Equal(got, want) {
			t.Fatalf("%s: delta report diverges from full sweep:\n--- delta ---\n%s\n--- full ---\n%s",
				o.what, firstDiffWindow(got, want), firstDiffWindow(want, got))
		}
		if got, want := renderFields(prev), renderFields(full); !bytes.Equal(got, want) {
			t.Fatalf("%s: delta violations diverge from full sweep in an unrendered field:\n--- delta ---\n%s\n--- full ---\n%s",
				o.what, firstDiffWindow(got, want), firstDiffWindow(want, got))
		}
		if n := metricValue(reg, "dcv_delta_whole_devices_total") - whole; n > 1 {
			t.Fatalf("%s: %v devices revalidated whole, want at most the one endpoint", o.what, n)
		}
		seen[leafRemaining(prev)] = true
	}
	if seen[-1] || len(seen) < 2 {
		t.Fatalf("leaf %s MissingRoute Remaining values seen: %v — want the violation held throughout and its count moving with the default row",
			name(leaf), seen)
	}
}

// TestFactsSurviveLinkStateChanges locks the §2.4 invariant the facade's
// Facts() cache depends on: contracts derive from intent, so link
// failures, session shutdowns, and restores must leave the generated
// contract set byte-identical.
func TestFactsSurviveLinkStateChanges(t *testing.T) {
	dc, err := NewDatacenter(incParams())
	if err != nil {
		t.Fatal(err)
	}
	render := func() []byte {
		var buf bytes.Buffer
		for _, set := range dc.Contracts() {
			fmt.Fprintf(&buf, "device %d: %d contracts\n", set.Device, len(set.Contracts))
			for _, c := range set.Contracts {
				fmt.Fprintf(&buf, "  %s %s -> %v\n", c.Kind, c.Prefix, c.NextHops)
			}
		}
		return buf.Bytes()
	}
	before := render()

	tor := dc.Topo.Device(dc.Topo.ToRs()[0]).Name
	leaf0 := dc.Topo.Device(dc.Topo.ClusterLeaves(0)[0]).Name
	leaf1 := dc.Topo.Device(dc.Topo.ClusterLeaves(0)[1]).Name
	if err := dc.FailLink(tor, leaf0); err != nil {
		t.Fatal(err)
	}
	if err := dc.ShutSession(tor, leaf1); err != nil {
		t.Fatal(err)
	}
	if got := render(); !bytes.Equal(before, got) {
		t.Fatal("contracts changed after link failure / session shutdown")
	}
	dc.Topo.RestoreAll()
	if got := render(); !bytes.Equal(before, got) {
		t.Fatal("contracts changed after restore")
	}
}
