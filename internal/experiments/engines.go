package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/monitor"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
	"dcvalidate/internal/workload"
)

// E4Row is one machine-readable sweep point of E4, serialized to
// BENCH_solver.json by dcbench so solver-perf regressions diff cleanly.
type E4Row struct {
	Rules         int     `json:"rules"`
	Contracts     int     `json:"contracts"`
	SMTDeviceNS   int64   `json:"smt_device_ns"`
	SMTContractNS int64   `json:"smt_contract_ns"`
	SMTParDevNS   int64   `json:"smt_par_device_ns"`
	Workers       int     `json:"workers"`
	TrieDeviceNS  int64   `json:"trie_device_ns"`
	TrieSpeedup   float64 `json:"trie_speedup"`
	Match         bool    `json:"match"`
}

// violationKey is the differential-oracle identity of a violation — the
// same key the trie-vs-SMT tests use. Witness details (counterexample
// addresses, matched rule prefixes) are engine- and schedule-dependent
// and deliberately excluded.
func violationKey(v rcdc.Violation) string {
	return fmt.Sprintf("%d|%v|%v", v.Device, v.Contract.Prefix, v.Kind)
}

func sameViolations(a, b []rcdc.Violation) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]int, len(a))
	for _, v := range a {
		set[violationKey(v)]++
	}
	for _, v := range b {
		set[violationKey(v)]--
	}
	for _, n := range set {
		if n != 0 {
			return false
		}
	}
	return true
}

// e4Point benchmarks one table size and cross-checks every engine
// configuration against the trie verdicts.
func e4Point(n int) E4Row {
	p := SizedParams("e4", 0)
	p.Clusters = (n + p.ToRsPerCluster - 1) / p.ToRsPerCluster
	topo := topology.MustNew(p)
	facts := metadata.FromTopology(topo)
	gen := contracts.NewGenerator(facts)
	src := bgp.NewSynth(topo, nil)

	tor := topo.ToRs()[0]
	tbl, err := src.Table(tor)
	if err != nil {
		panic(err)
	}
	dc := gen.ForDevice(tor)

	start := now()
	smtViol, err := (rcdc.SMTChecker{Workers: 1}).CheckDevice(tbl, dc, topology.RoleToR)
	if err != nil {
		panic(err)
	}
	smt := since(start)

	workers := runtime.GOMAXPROCS(0)
	start = now()
	parViol, err := (rcdc.SMTChecker{Workers: workers}).CheckDevice(tbl, dc, topology.RoleToR)
	if err != nil {
		panic(err)
	}
	smtPar := since(start)

	start = now()
	trieViol, err := (rcdc.TrieChecker{}).CheckDevice(tbl, dc, topology.RoleToR)
	if err != nil {
		panic(err)
	}
	trie := since(start)

	return E4Row{
		Rules:         tbl.Len(),
		Contracts:     len(dc.Contracts),
		SMTDeviceNS:   int64(smt),
		SMTContractNS: int64(smt) / int64(len(dc.Contracts)),
		SMTParDevNS:   int64(smtPar),
		Workers:       workers,
		TrieDeviceNS:  int64(trie),
		TrieSpeedup:   float64(smt) / float64(trie),
		Match:         sameViolations(smtViol, trieViol) && sameViolations(parViol, trieViol),
	}
}

// E4SMTVsTrie compares the generic bit-vector engine against the
// specialized trie checker per device (§2.5: SMT "within a second" per
// routing table; the trie algorithm enabled scaling with modest CPU).
// Every point also runs the SMT engine at Workers = GOMAXPROCS and
// cross-checks all verdicts against the trie oracle; the machine-readable
// rows back BENCH_solver.json.
func E4SMTVsTrie(prefixCounts []int) (Result, []E4Row) {
	var b strings.Builder
	rows := make([]E4Row, 0, len(prefixCounts))
	fmt.Fprintf(&b, "%10s %10s %12s %14s %12s %12s %9s %6s %12s\n",
		"rules", "contracts", "smt/device", "smt/contract", "smt-par", "trie/device", "speedup", "match", "paper(query)")
	for _, n := range prefixCounts {
		r := e4Point(n)
		rows = append(rows, r)
		fmt.Fprintf(&b, "%10d %10d %12s %14s %12s %12s %8.0fx %6v %12s\n",
			r.Rules, r.Contracts,
			time.Duration(r.SMTDeviceNS).Round(time.Millisecond),
			time.Duration(r.SMTContractNS).Round(time.Microsecond),
			time.Duration(r.SMTParDevNS).Round(time.Millisecond),
			time.Duration(r.TrieDeviceNS).Round(time.Microsecond),
			r.TrieSpeedup, r.Match, "≤1s")
	}
	return Result{
		ID:    "E4",
		Title: "verification engines: bit-vector SMT vs specialized trie (§2.5)",
		Table: b.String(),
		Notes: "paper: Z3-based checking stays within a second per query on datacenter routing tables (see smt/contract); the specialized trie algorithm is the much faster common-workload path — same ordering here, and the gap is why RCDC built it; match cross-checks SMT (sequential and parallel) verdicts against the trie oracle",
	}, rows
}

// E4SolverGate is the CI solver-perf smoke: one short E4 point that must
// stay under a generous per-contract ceiling with verdicts matching the
// trie engine. It panics on regression so dcbench exits non-zero.
func E4SolverGate(prefixCount int, ceiling time.Duration) Result {
	r := e4Point(prefixCount)
	if !r.Match {
		panic(fmt.Sprintf("e4s: SMT verdicts diverge from trie oracle at %d rules", r.Rules))
	}
	if got := time.Duration(r.SMTContractNS); got > ceiling {
		panic(fmt.Sprintf("e4s: smt/contract %v exceeds ceiling %v at %d rules", got, ceiling, r.Rules))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "rules %d: smt/contract %v (ceiling %v), match %v\n",
		r.Rules, time.Duration(r.SMTContractNS).Round(time.Microsecond), ceiling, r.Match)
	return Result{
		ID:    "E4s",
		Title: "solver perf smoke: per-contract ceiling and trie agreement",
		Table: b.String(),
		Notes: "CI gate: panics (non-zero exit) when the SMT engine regresses past the ceiling or stops agreeing with the trie engine",
	}
}

// E5Figure3 reproduces the running example of §2.4.4 end to end.
func E5Figure3() Result {
	topo := topology.MustNew(topology.Figure3Params())
	hps := topo.HostedPrefixes()
	tor1, tor2 := topo.ClusterToRs(0)[0], topo.ClusterToRs(0)[1]
	leavesA := topo.ClusterLeaves(0)
	topo.FailLink(tor1, leavesA[2])
	topo.FailLink(tor1, leavesA[3])
	topo.FailLink(tor2, leavesA[0])
	topo.FailLink(tor2, leavesA[1])

	facts := metadata.FromTopology(topo)
	v := rcdc.Validator{Workers: 1}
	rep, err := v.ValidateAll(facts, bgp.NewSynth(topo, nil))
	if err != nil {
		panic(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-18s %-16s %-5s\n", "device", "contract", "kind", "risk")
	for _, viol := range rep.Violations() {
		name := topo.Device(viol.Device).Name
		pfx := "default"
		if viol.Contract.Kind == contracts.Specific {
			pfx = viol.Contract.Prefix.String()
		}
		fmt.Fprintf(&b, "%-14s %-18s %-16s %-5s\n", name, pfx, viol.Kind, viol.Severity)
	}
	// Detour check: reachability survives via the R devices.
	g, err := rcdc.NewGlobalChecker(topo, bgp.NewSynth(topo, nil))
	if err != nil {
		panic(err)
	}
	reach := g.Check(rcdc.Reachability)
	pair := g.CheckPair(tor1, hps[1])
	fmt.Fprintf(&b, "reachability failures: %d (paper: none — longer route via R)\n", len(reach))
	fmt.Fprintf(&b, "ToR1->PrefixB path length under failures: %d hops (direct would be 2)\n", pair.MinHops)
	return Result{
		ID:    "E5",
		Title: "Figure 3/4 running example with four link failures (§2.4.4)",
		Table: b.String(),
		Notes: "paper's violation set: {ToR1,A1,A2,D1,D2}×PrefixB, {ToR2,A3,A4,D3,D4}×PrefixA, both ToR defaults at 2/4 hops; RCDC also flags the B-side leaves behind the affected spines",
	}
}

// E6Taxonomy injects each §2.6.2 error class and reports detection and
// triage routing.
func E6Taxonomy() Result {
	type tc struct {
		name   string
		inject func(s *workload.Scenario) topology.DeviceID
	}
	cases := []tc{
		{"software bug 1 (RIB-FIB)", func(s *workload.Scenario) topology.DeviceID {
			d := s.Topo.ToRs()[0]
			s.InjectRIBFIBBug(d, 1)
			return d
		}},
		{"software bug 2 (L2 ports)", func(s *workload.Scenario) topology.DeviceID {
			d := s.Topo.ClusterLeaves(0)[0]
			s.InjectL2PortBug(d)
			return d
		}},
		{"hardware failure (optics)", func(s *workload.Scenario) topology.DeviceID {
			l, _ := s.Topo.LinkBetween(s.Topo.ToRs()[0], s.Topo.ClusterLeaves(0)[0])
			s.InjectOpticalFailure(l.ID)
			return s.Topo.ToRs()[0]
		}},
		{"operation drift (shut)", func(s *workload.Scenario) topology.DeviceID {
			l, _ := s.Topo.LinkBetween(s.Topo.ToRs()[1], s.Topo.ClusterLeaves(0)[1])
			s.InjectOperationDrift(l.ID, false)
			return s.Topo.ToRs()[1]
		}},
		{"migration (ASN clash)", func(s *workload.Scenario) topology.DeviceID {
			s.InjectMigrationClash(0, 1)
			return s.Topo.ClusterLeaves(1)[0]
		}},
		{"policy error (reject default)", func(s *workload.Scenario) topology.DeviceID {
			d := s.Topo.ClusterLeaves(1)[2]
			s.InjectPolicyRejectDefault(d)
			return d
		}},
		{"policy error (single ECMP)", func(s *workload.Scenario) topology.DeviceID {
			d := s.Topo.ToRs()[3]
			s.InjectPolicyECMPSingle(d)
			return d
		}},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s %-10s %-22s %-20s\n", "injected", "detected", "class", "remediation queue")
	for _, c := range cases {
		s := workload.NewScenario(topology.MustNew(topology.Figure3Params()))
		dev := c.inject(s)
		in := monitor.NewInstance("e6", s.Datacenter("dc"))
		in.Workers = 4
		stats, err := in.RunCycle()
		if err != nil {
			panic(err)
		}
		detected := stats.Violations > 0
		class, queue := "-", "-"
		for _, te := range in.Analytics.Triage(stats.Cycle, in.Datacenters) {
			if te.Record.Device == dev {
				class, queue = te.Class.String(), string(te.Queue)
				break
			}
		}
		fmt.Fprintf(&b, "%-30s %-10v %-22s %-20s\n", c.name, detected, class, queue)
	}
	return Result{
		ID:    "E6",
		Title: "§2.6.2 error taxonomy: detection and automated triage",
		Table: b.String(),
		Notes: "every class the paper reports from production is detected by contract validation and routed to the remediation path §2.6.1 describes",
	}
}

// E7Burndown regenerates the Figure 6 series.
func E7Burndown() Result {
	pts := workload.SimulateBurndown(workload.DefaultBurndownConfig())
	var b strings.Builder
	fmt.Fprintf(&b, "%5s %10s %10s %10s\n", "day", "highFrac", "lowFrac", "totalFrac")
	for _, p := range pts {
		if p.Day%5 != 0 {
			continue
		}
		fmt.Fprintf(&b, "%5d %10.3f %10.3f %10.3f\n", p.Day, p.HighFrac, p.LowFrac, p.TotalFrac)
	}
	last := pts[len(pts)-1]
	fmt.Fprintf(&b, "remediated: %d total, %d high-risk; final backlog %d\n",
		last.RemediatedSoFar, last.HighRemediatedSoFar, last.High+last.Low)
	return Result{
		ID:    "E7",
		Title: "Figure 6: burndown of routing intent-drift errors",
		Table: b.String(),
		Notes: "shape matches the paper: flat backlog until deployment (day 5), then a clear downward trend with high-risk errors burning down first",
	}
}

// E7bPipelineBurndown is the closed-loop variant of E7: instead of a
// seeded telemetry model, the burndown curve is produced by the actual
// pipeline — inject a latent backlog, run RCDC cycles, triage, spend a
// bounded remediation budget highest-risk-first — and read the alert
// tracker's open counts.
func E7bPipelineBurndown() Result {
	series, err := workload.SimulatePipelineBurndown(workload.DefaultPipelineBurndownConfig())
	if err != nil {
		panic(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %9s %8s %8s %9s\n", "cycle", "openHigh", "openLow", "opened", "resolved")
	for _, p := range series {
		fmt.Fprintf(&b, "%6d %9d %8d %8d %9d\n", p.Cycle, p.OpenHigh, p.OpenLow, p.Opened, p.Resolved)
	}
	return Result{
		ID:    "E7b",
		Title: "Figure 6, closed loop: burndown from the real detect/triage/remediate pipeline",
		Table: b.String(),
		Notes: "the downward, high-risk-first curve emerges from the pipeline itself: RCDC detects the injected backlog, triage classifies it, auto-remediation unshuts drifted sessions, and the bounded manual budget drains the §2.6.4 queues highest risk first",
	}
}

// E14Claim1 runs the randomized Claim 1 consistency trials.
func E14Claim1(trials int) Result {
	healthy, inconsistent := 0, 0
	for i := 0; i < trials; i++ {
		p := topology.Params{
			Name:     fmt.Sprintf("c1-%d", i),
			Clusters: 1 + i%3, ToRsPerCluster: 1 + i%4, LeavesPerCluster: 1 + (i/2)%3,
			SpinesPerPlane: 1 + i%2, RegionalSpines: 2, RSLinksPerSpine: 2,
		}
		topo := topology.MustNew(p)
		if i%2 == 1 {
			topo.Links[i%len(topo.Links)].Up = false
		}
		facts := metadata.FromTopology(topo)
		src := bgp.NewSynth(topo, nil)
		v := rcdc.Validator{Workers: 1}
		rep, err := v.ValidateAll(facts, src)
		if err != nil {
			panic(err)
		}
		g, err := rcdc.NewGlobalChecker(topo, src)
		if err != nil {
			panic(err)
		}
		fails := g.Check(rcdc.FullRedundancy)
		// Claim 1 is the healthy direction: zero local violations must
		// imply the full global intent. (Local contracts are strictly
		// stronger, so violations with a passing global check are fine.)
		if rep.Failures == 0 {
			healthy++
			if len(fails) != 0 {
				inconsistent++
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trials=%d healthySamples=%d claim1Violations=%d\n", trials, healthy, inconsistent)
	return Result{
		ID:    "E14",
		Title: "Claim 1: local contracts imply global reachability (§2.4.5)",
		Table: b.String(),
		Notes: "on every trial with zero local violations, the independent global checker confirms all-pairs maximal shortest-path reachability",
	}
}
