package dcvalidate

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"dcvalidate/internal/acl"
	"dcvalidate/internal/clock"
	"dcvalidate/internal/faulty"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/monitor"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/secguru"
	"dcvalidate/internal/topology"
)

// TestReportDeterminism locks the invariant DESIGN.md's "Determinism
// invariants" section promises: validation output is a pure function of
// the inputs. It performs two complete, independent runs of the
// report-producing paths — BGP simulation into FIBs, parallel RCDC
// validation, and a SecGuru policy check — over the same degraded
// datacenter and asserts the rendered reports are byte-identical. Map
// iteration order leaking into any of these (the class of bug the
// mapiter analyzer flags, e.g. the RIB-In delivery order in the BGP
// simulator) shows up here as a flaky diff. The monitoring leg runs a
// faulted monitor instance twice at four workers and once at one: its
// analytics stream and per-cycle errors must not depend on goroutine
// scheduling.
func TestReportDeterminism(t *testing.T) {
	sameBytes(t, "reports", renderFullRun(t), renderFullRun(t))
	par := renderMonitorRun(t, 4)
	sameBytes(t, "monitor runs at 4 workers", par, renderMonitorRun(t, 4))
	sameBytes(t, "monitor runs at 4 and 1 workers", par, renderMonitorRun(t, 1))
}

func sameBytes(t *testing.T, what string, first, second []byte) {
	t.Helper()
	if !bytes.Equal(first, second) {
		t.Fatalf("%s differ between identical runs:\n--- first ---\n%s\n--- second ---\n%s",
			what, firstDiffWindow(first, second), firstDiffWindow(second, first))
	}
}

// renderMonitorRun runs three monitoring cycles over a 4-cluster
// datacenter with a failed link, transient pull failures, one dead device
// and corrupt table documents, on a virtual clock, and renders each
// cycle's counts and errors, then the analytics stream, in order.
func renderMonitorRun(t *testing.T, workers int) []byte {
	t.Helper()
	topo := topology.MustNew(topology.Params{
		Name: "det", Clusters: 4, ToRsPerCluster: 4, LeavesPerCluster: 4,
		SpinesPerPlane: 1, RegionalSpines: 2, RSLinksPerSpine: 1,
	})
	topo.FailLink(topo.ToRs()[0], topo.ClusterLeaves(0)[0])
	dc := monitor.NewDatacenter("det", topo, nil)
	fs := &faulty.Source{Inner: dc.Source, Seed: 7, TransientRate: 0.2, CorruptRate: 0.1}
	fs.KillDevice(topo.ToRs()[5])
	dc.Source = fs
	in := monitor.NewInstance("det", dc)
	in.Workers = workers
	in.SkipUnchanged = true
	in.Clock = clock.NewVirtual(time.Date(2019, 8, 19, 0, 0, 0, 0, time.UTC))

	var buf bytes.Buffer
	for c := 0; c < 3; c++ {
		st, err := in.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "== cycle %d: %d devices, %d violations, %d skipped, %d pull failures, %d stale, %d unmonitored ==\n",
			st.Cycle, st.Devices, st.Violations, st.Skipped, st.PullFailures, st.StaleDevices, st.Unmonitored)
		for _, err := range st.Errs {
			fmt.Fprintf(&buf, "error %v\n", err)
		}
	}
	for _, r := range in.Analytics.Query(func(*monitor.Record) bool { return true }) {
		fmt.Fprintf(&buf, "record cycle %d %s/%d %s stale=%v unmonitored=%v\n",
			r.Cycle, r.Datacenter, r.Device, r.Name, r.Stale, r.Unmonitored)
		for _, v := range r.Violations {
			fmt.Fprintf(&buf, "  %s\n", v)
		}
	}
	return buf.Bytes()
}

// renderFullRun builds a Figure 3 datacenter with a failed link and a
// forgotten-shut session, simulates BGP, validates every device in
// parallel, checks a policy, and renders everything into one buffer.
// Timing is read from a virtual clock so Elapsed fields are fixed.
func renderFullRun(t *testing.T) []byte {
	t.Helper()
	dc, err := NewDatacenter(Figure3Params())
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.FailLink("fig3-c0-t0-0", "fig3-c0-t1-2"); err != nil {
		t.Fatal(err)
	}
	if err := dc.ShutSession("fig3-c0-t0-0", "fig3-c0-t1-3"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer

	// FIBs out of the path-vector simulation (RIB-In order sensitive).
	for _, name := range []string{"fig3-c0-t0-0", "fig3-c0-t1-0", "fig3-c1-t0-0"} {
		dev, ok := dc.Topo.ByName(name)
		if !ok {
			t.Fatalf("unknown device %q", name)
		}
		tbl, err := dc.SimulateBGP().Table(dev.ID)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "== fib %s ==\n", name)
		if err := tbl.WriteText(&buf, dc.Topo); err != nil {
			t.Fatal(err)
		}
	}

	// Parallel local validation with a virtual clock.
	vclk := clock.NewVirtual(time.Date(2019, 8, 19, 0, 0, 0, 0, time.UTC))
	v := rcdc.Validator{Workers: 4, Clock: vclk}
	rep, err := v.ValidateAll(dc.Facts(), dc.SimulateBGP())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "== validation: %d checked, %d failures, %d high-risk ==\n",
		rep.Checked, rep.Failures, rep.HighRisk())
	for i := range rep.Devices {
		d := &rep.Devices[i]
		fmt.Fprintf(&buf, "device %d: %d contracts\n", d.Device, d.Contracts)
		for _, viol := range d.Violations {
			fmt.Fprintf(&buf, "  %s\n", viol.String())
		}
	}

	// SecGuru policy check with a virtual clock.
	policy, err := ParseIOSACL("edge", strings.NewReader(detACL))
	if err != nil {
		t.Fatal(err)
	}
	cs := []secguru.Contract{
		{Name: "private-unreachable", Expected: acl.Deny,
			Filter: secguru.Filter{Protocol: acl.AnyProto,
				Src:      ipnet.MustParsePrefix("10.0.0.0/8"),
				SrcPorts: acl.AnyPort, DstPorts: acl.AnyPort}},
		{Name: "web-open", Expected: acl.Permit,
			Filter: secguru.Filter{Protocol: acl.Proto(acl.ProtoTCP),
				Src:      ipnet.MustParsePrefix("8.0.0.0/8"),
				Dst:      ipnet.MustParsePrefix("104.208.33.0/24"),
				SrcPorts: acl.AnyPort, DstPorts: acl.Port(443)}},
		{Name: "ssh-closed", Expected: acl.Deny,
			Filter: secguru.Filter{Protocol: acl.Proto(acl.ProtoTCP),
				SrcPorts: acl.AnyPort, DstPorts: acl.Port(22)}},
	}
	srep, err := secguru.CheckOn(vclk, policy, cs)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "== policy %s: elapsed %s ==\n", srep.Policy, srep.Elapsed)
	for _, o := range srep.Outcomes {
		fmt.Fprintf(&buf, "contract %s preserved=%v rule=%d %s\n",
			o.Contract.Name, o.Preserved, o.RuleIndex, o.RuleName)
		if !o.Preserved {
			fmt.Fprintf(&buf, "  witness %v\n", o.Witness)
		}
	}
	return buf.Bytes()
}

const detACL = `
remark isolate private space
deny ip 10.0.0.0/8 any
deny ip 192.168.0.0/16 any
remark web front ends
permit tcp any 104.208.33.0/24 eq 443
permit tcp any 104.208.33.0/24 eq 80
deny ip any any
`

// firstDiffWindow returns a short window of a around its first
// divergence from b, so failures show the unstable region rather than
// two full reports.
func firstDiffWindow(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 200
	if lo < 0 {
		lo = 0
	}
	hi := i + 200
	if hi > len(a) {
		hi = len(a)
	}
	return a[lo:hi]
}
