package dcvalidate

import (
	"bytes"
	"fmt"
	"testing"

	"dcvalidate/internal/fib"
	"dcvalidate/internal/topology"
)

// The cross-engine differential scenario matrix: every §2.6.2-style error
// class is injected into a fresh Figure 3 datacenter and validated by
// every engine (trie, SMT, PEC), both as a full sweep and as a delta
// sweep spliced into a healthy baseline. Within an engine, full and delta
// reports must render byte-identically; across engines, the violation
// sets must agree on the (device, contract prefix, kind) surface; and the
// trie and PEC engines — which share exact verdict semantics down to
// witness details — must render byte-identically to each other. The trie
// engine runs twice: its full sweep over the synthesized fleet must take
// the runs path, and a "rows" leg over the same tables with the runs hidden
// must render the same bytes. One scenario goes a step further and splices
// a second, row-scoped delta into the report that already holds the first
// one's violations.

// renderMatrixReport is the timing-free byte surface of a report: every
// device's name, role, contract count and violations.
func renderMatrixReport(rep *Report) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "checked=%d failures=%d\n", rep.Checked, rep.Failures)
	for i := range rep.Devices {
		d := &rep.Devices[i]
		fmt.Fprintf(&buf, "dev=%d name=%s role=%s contracts=%d\n", d.Device, d.Name, d.Role, d.Contracts)
		for _, v := range d.Violations {
			fmt.Fprintf(&buf, "  %s\n", v.String())
		}
	}
	return buf.Bytes()
}

// violationSigs reduces a report to the engine-independent identity of
// its violations. Witness details (counterexample addresses, matched rule
// prefixes) are engine-dependent and deliberately excluded — this is the
// same differential surface the trie-vs-SMT oracle tests use.
func violationSigs(rep *Report) map[string]int {
	sigs := make(map[string]int)
	for i := range rep.Devices {
		for _, v := range rep.Devices[i].Violations {
			sigs[fmt.Sprintf("%d|%v|%v", v.Device, v.Contract.Prefix, v.Kind)]++
		}
	}
	return sigs
}

func sameSigs(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// mutatedSource corrupts one device's pulled FIB — the RIB is right, the
// FIB is not (Software Bug 1's shape) — leaving every other device's
// table untouched.
type mutatedSource struct {
	inner  FIBSource
	victim DeviceID
	mutate func(tbl *fib.Table) *fib.Table
}

func (m mutatedSource) Table(id DeviceID) (*fib.Table, error) {
	tbl, err := m.inner.Table(id)
	if err != nil || id != m.victim {
		return tbl, err
	}
	return m.mutate(tbl), nil
}

// dropOneSpecific removes the first non-default, non-connected route — a
// silent blackhole for that prefix.
func dropOneSpecific(tbl *fib.Table) *fib.Table {
	out := fib.NewTable(tbl.Device)
	dropped := false
	for _, e := range tbl.Entries {
		if !dropped && !e.Connected && e.Prefix.Bits != 0 {
			dropped = true
			continue
		}
		out.Add(e)
	}
	return out
}

// selfLoopOneSpecific rewrites the first non-default, non-connected
// route's ECMP set to the device itself — a forwarding loop, so packets
// for that prefix are delivered to the wrong place.
func selfLoopOneSpecific(tbl *fib.Table) *fib.Table {
	out := fib.NewTable(tbl.Device)
	looped := false
	for _, e := range tbl.Entries {
		if !looped && !e.Connected && e.Prefix.Bits != 0 {
			looped = true
			e.NextHops = []DeviceID{tbl.Device}
		}
		out.Add(e)
	}
	return out
}

// rowsOnly hides a source's runs: the sweep merge-joins its tables row by
// row.
type rowsOnly struct{ inner FIBSource }

func (r rowsOnly) Table(id DeviceID) (*fib.Table, error) { return r.inner.Table(id) }

// runSegments sums dcv_rcdc_runs_total over its outcomes (0 without a
// registry).
func runSegments(reg *MetricsRegistry) float64 {
	n := 0.0
	if reg == nil {
		return n
	}
	for _, s := range reg.Snapshot() {
		if s.Name == "dcv_rcdc_runs_total" {
			n += s.Value
		}
	}
	return n
}

type matrixScenario struct {
	name string
	// broken: the scenario must produce at least one violation on every
	// engine (and healthy must produce none).
	broken bool
	// apply injects the error through the facade (journaled mutations).
	apply func(t *testing.T, dc *Datacenter)
	// source, when non-nil, additionally corrupts the FIB pull path; the
	// victim device is journaled via NoteDeviceChanged so the delta leg's
	// blast radius covers the corruption, exactly as the telemetry
	// injectors in internal/workload do.
	source func(t *testing.T, dc *Datacenter) FIBSource
	// then, when non-nil, is a follow-up journaled change applied after
	// the first delta: every engine splices it, at contract granularity,
	// into the report that now holds violations, and must again match a
	// full sweep.
	then func(t *testing.T, dc *Datacenter)
}

func matrixScenarios() []matrixScenario {
	name := func(dc *Datacenter, id DeviceID) string { return dc.Topo.Device(id).Name }
	return []matrixScenario{
		{name: "healthy", broken: false, apply: func(t *testing.T, dc *Datacenter) {}},
		{name: "link-blackhole", broken: true, apply: func(t *testing.T, dc *Datacenter) {
			if err := dc.FailLink(name(dc, dc.Topo.ClusterToRs(0)[0]), name(dc, dc.Topo.ClusterLeaves(0)[0])); err != nil {
				t.Fatal(err)
			}
		}, then: func(t *testing.T, dc *Datacenter) {
			// The plane-0 spine now misses the ToR's prefix (a MissingRoute
			// violation, whose Remaining is read off the default row);
			// dropping one of its regional uplinks puts only that default
			// row in scope.
			spine := dc.Topo.Spines()[0]
			for _, n := range dc.Topo.Neighbors(spine) {
				if dc.Topo.Device(n).Role == topology.RoleRegionalSpine {
					if err := dc.FailLink(name(dc, spine), name(dc, n)); err != nil {
						t.Fatal(err)
					}
					return
				}
			}
			t.Fatal("spine has no regional uplink")
		}},
		{name: "session-shutdown", broken: true, apply: func(t *testing.T, dc *Datacenter) {
			if err := dc.ShutSession(name(dc, dc.Topo.ClusterToRs(0)[0]), name(dc, dc.Topo.ClusterLeaves(0)[1])); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "l2-port-bug", broken: true, apply: func(t *testing.T, dc *Datacenter) {
			if err := dc.SetDeviceConfig(name(dc, dc.Topo.ClusterLeaves(0)[0]), &DeviceConfig{SessionsDisabled: true}); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "reject-default", broken: true, apply: func(t *testing.T, dc *Datacenter) {
			if err := dc.SetDeviceConfig(name(dc, dc.Topo.ClusterLeaves(1)[0]), &DeviceConfig{RejectDefaultIn: true}); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "ecmp-single", broken: true, apply: func(t *testing.T, dc *Datacenter) {
			if err := dc.SetDeviceConfig(name(dc, dc.Topo.ClusterToRs(0)[1]), &DeviceConfig{MaxECMPPaths: 1}); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "asn-clash", broken: true, apply: func(t *testing.T, dc *Datacenter) {
			// A cluster-1 leaf migrated with cluster-0's leaf ASN: BGP loop
			// prevention silently discards its announcements.
			asn := dc.Topo.Device(dc.Topo.ClusterLeaves(0)[0]).ASN
			for _, leaf := range dc.Topo.ClusterLeaves(1) {
				if err := dc.SetDeviceConfig(name(dc, leaf), &DeviceConfig{ASNOverride: asn}); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{name: "rib-fib-blackhole", broken: true,
			apply: func(t *testing.T, dc *Datacenter) {
				dc.Topo.NoteDeviceChanged(dc.Topo.ClusterToRs(0)[0])
			},
			source: func(t *testing.T, dc *Datacenter) FIBSource {
				return mutatedSource{inner: dc.Source(), victim: dc.Topo.ClusterToRs(0)[0], mutate: dropOneSpecific}
			}},
		{name: "fib-self-loop", broken: true,
			apply: func(t *testing.T, dc *Datacenter) {
				dc.Topo.NoteDeviceChanged(dc.Topo.ClusterToRs(0)[0])
			},
			source: func(t *testing.T, dc *Datacenter) FIBSource {
				return mutatedSource{inner: dc.Source(), victim: dc.Topo.ClusterToRs(0)[0], mutate: selfLoopOneSpecific}
			}},
	}
}

func TestScenarioMatrixCrossEngine(t *testing.T) {
	engines := []struct {
		name string
		eng  Engine
		rows bool // hide the synthesized runs
	}{
		{"trie", EngineTrie, false},
		{"rows", EngineTrie, true},
		{"smt", EngineSMT, false},
		{"pec", EnginePEC, false},
	}
	for _, sc := range matrixScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			fullRender := map[string][]byte{}
			fullSigs := map[string]map[string]int{}
			for _, e := range engines {
				dc, err := NewDatacenter(Figure3Params())
				if err != nil {
					t.Fatal(err)
				}
				opts := ValidateOptions{Engine: e.eng, Workers: 1}
				// The rows leg pulls from a source made after each change: an
				// overriding source is not refreshed.
				rowsSource := func() {
					if e.rows {
						opts.Source = rowsOnly{dc.Source()}
					}
				}
				rowsSource()
				prev, err := dc.Validate(opts)
				if err != nil {
					t.Fatalf("%s baseline: %v", e.name, err)
				}
				if prev.Failures != 0 {
					t.Fatalf("%s baseline unhealthy: %d failures", e.name, prev.Failures)
				}

				sc.apply(t, dc)
				rowsSource()
				if sc.source != nil {
					opts.Source = sc.source(t, dc)
				}
				var reg *MetricsRegistry
				if e.eng == EngineTrie {
					reg = dc.Metrics()
				}
				full, err := dc.Validate(opts)
				if err != nil {
					t.Fatalf("%s full: %v", e.name, err)
				}
				// The synthesized fleet is checked as runs — by the full sweep,
				// and by the delta over the serving plane's table-cached source
				// whenever the change dirtied something. The rows leg's source
				// and a corrupted pull path offer none.
				runs := !e.rows && sc.source == nil
				if reg != nil && (runSegments(reg) > 0) != runs {
					t.Errorf("%s: %v run segments decided by the full sweep, want runs: %v", e.name, runSegments(reg), runs)
				}
				fullSegments := runSegments(reg)
				delta, err := dc.ValidateDelta(prev, opts)
				if err != nil {
					t.Fatalf("%s delta: %v", e.name, err)
				}
				if reg != nil && (runSegments(reg) > fullSegments) != (runs && sc.broken) {
					t.Errorf("%s: %v run segments decided by the delta, want runs: %v", e.name, runSegments(reg)-fullSegments, runs && sc.broken)
				}

				if (full.Failures > 0) != sc.broken {
					t.Errorf("%s: failures=%d, broken=%v", e.name, full.Failures, sc.broken)
				}
				fr, dr := renderMatrixReport(full), renderMatrixReport(delta)
				if !bytes.Equal(fr, dr) {
					t.Errorf("%s: delta sweep diverges from full sweep\n--- full ---\n%s--- delta ---\n%s", e.name, fr, dr)
				}
				fullRender[e.name] = fr
				fullSigs[e.name] = violationSigs(full)

				if sc.then != nil {
					sc.then(t, dc)
					rowsSource()
					full2, err := dc.Validate(opts)
					if err != nil {
						t.Fatalf("%s follow-up full: %v", e.name, err)
					}
					delta2, err := dc.ValidateDelta(delta, opts)
					if err != nil {
						t.Fatalf("%s follow-up delta: %v", e.name, err)
					}
					fr2, dr2 := renderFields(full2), renderFields(delta2)
					if bytes.Equal(fr2, renderFields(full)) {
						t.Errorf("%s: follow-up change moved no violation field; the leg checks nothing", e.name)
					}
					if !bytes.Equal(renderMatrixReport(full2), renderMatrixReport(delta2)) || !bytes.Equal(fr2, dr2) {
						t.Errorf("%s: follow-up delta diverges from full sweep\n--- full ---\n%s%s--- delta ---\n%s%s",
							e.name, renderMatrixReport(full2), fr2, renderMatrixReport(delta2), dr2)
					}
					fullRender[e.name+"/then"] = append(renderMatrixReport(full2), fr2...)
				}
			}

			// Trie runs, trie rows and PEC share exact semantics: byte
			// identity.
			for _, other := range []string{"rows", "pec"} {
				if !bytes.Equal(fullRender["trie"], fullRender[other]) || !bytes.Equal(fullRender["trie/then"], fullRender[other+"/then"]) {
					t.Errorf("%s report diverges from trie\n--- trie ---\n%s--- %s ---\n%s",
						other, fullRender["trie"], other, fullRender[other])
				}
			}
			// All engines agree on the violation identity surface.
			for _, e := range engines[1:] {
				if !sameSigs(fullSigs["trie"], fullSigs[e.name]) {
					t.Errorf("%s violation set diverges from trie:\ntrie: %v\n%s: %v",
						e.name, fullSigs["trie"], e.name, fullSigs[e.name])
				}
			}
		})
	}
}
