package dcvalidate

// One benchmark per experiment in DESIGN.md's index (E1–E14). Each
// measures the experiment's kernel operation; cmd/dcbench prints the
// full paper-style tables around the same code paths. Run with:
//
//	go test -bench=. -benchmem .

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"dcvalidate/internal/acl"
	"dcvalidate/internal/bgp"
	"dcvalidate/internal/clock"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/emulator"
	"dcvalidate/internal/experiments"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/monitor"
	"dcvalidate/internal/par"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/secguru"
	"dcvalidate/internal/topology"
	"dcvalidate/internal/workload"
)

// torFixture builds a datacenter with the given number of hosted prefixes
// and returns everything needed to validate one ToR.
func torFixture(b *testing.B, prefixes int) (*metadata.Facts, *fib.Table, contracts.DeviceContracts, topology.Role) {
	b.Helper()
	p := experiments.SizedParams("bench", 0)
	p.Clusters = (prefixes + p.ToRsPerCluster - 1) / p.ToRsPerCluster
	topo := topology.MustNew(p)
	facts := metadata.FromTopology(topo)
	gen := contracts.NewGenerator(facts)
	src := bgp.NewSynth(topo, nil)
	tor := topo.ToRs()[0]
	tbl, err := src.Table(tor)
	if err != nil {
		b.Fatal(err)
	}
	return facts, tbl, gen.ForDevice(tor), topology.RoleToR
}

// BenchmarkE1_PerDeviceValidation measures validating all contracts of one
// device (§2.6.3: paper reports 180ms average per device).
func BenchmarkE1_PerDeviceValidation(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000} {
		b.Run(fmt.Sprintf("prefixes=%d", n), func(b *testing.B) {
			facts, tbl, dc, _ := torFixture(b, n)
			v := rcdc.Validator{Workers: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.ValidateDevice(facts, tbl, dc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2_DatacenterSweep measures whole-datacenter validation on a
// single CPU (§1/§2.6.3: 10^4 routers in <3 minutes).
func BenchmarkE2_DatacenterSweep(b *testing.B) {
	for _, n := range []int{500, 1000, 2000} {
		b.Run(fmt.Sprintf("devices=%d", n), func(b *testing.B) {
			topo := topology.MustNew(experiments.SizedParams("e2", n))
			facts := metadata.FromTopology(topo)
			src := bgp.NewSynth(topo, nil)
			v := rcdc.Validator{Workers: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := v.ValidateAll(facts, src)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Failures != 0 {
					b.Fatalf("healthy DC had %d failures", rep.Failures)
				}
			}
		})
	}
}

// BenchmarkE2_DatacenterSweepParallel is the all-CPUs ablation of E2.
func BenchmarkE2_DatacenterSweepParallel(b *testing.B) {
	topo := topology.MustNew(experiments.SizedParams("e2p", 2000))
	facts := metadata.FromTopology(topo)
	src := bgp.NewSynth(topo, nil)
	v := rcdc.Validator{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.ValidateAll(facts, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_LocalVsGlobal compares local validation (sub-bench "local")
// against the global snapshot baseline (sub-bench "global") on the same
// datacenter (§1, §2.4).
func BenchmarkE3_LocalVsGlobal(b *testing.B) {
	topo := topology.MustNew(experiments.SizedParams("e3", 500))
	facts := metadata.FromTopology(topo)
	src := bgp.NewSynth(topo, nil)
	b.Run("local", func(b *testing.B) {
		v := rcdc.Validator{Workers: 1}
		for i := 0; i < b.N; i++ {
			if _, err := v.ValidateAll(facts, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("global", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g, err := rcdc.NewGlobalChecker(topo, src)
			if err != nil {
				b.Fatal(err)
			}
			if fails := g.Check(rcdc.FullRedundancy); len(fails) != 0 {
				b.Fatal("unexpected failures")
			}
		}
	})
}

// BenchmarkE4_SMTVsTrie compares the two verification engines on one
// device (§2.5).
func BenchmarkE4_SMTVsTrie(b *testing.B) {
	for _, n := range []int{500, 1000} {
		_, tbl, dc, role := torFixture(b, n)
		b.Run(fmt.Sprintf("smt/rules=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (rcdc.SMTChecker{}).CheckDevice(tbl, dc, role); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("trie/rules=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (rcdc.TrieChecker{}).CheckDevice(tbl, dc, role); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5_Figure3Scenario measures the full running-example pipeline:
// build the Figure 3 topology with failures, converge, validate.
func BenchmarkE5_Figure3Scenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		topo := topology.MustNew(topology.Figure3Params())
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
			b.Fatal(err)
		}
		if rep.Failures != 16 {
			b.Fatalf("violations = %d, want 16", rep.Failures)
		}
	}
}

// BenchmarkE6_ErrorInjectionCycle measures one monitoring cycle detecting
// an injected §2.6.2 error.
func BenchmarkE6_ErrorInjectionCycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := workload.NewScenario(topology.MustNew(topology.Figure3Params()))
		s.InjectRIBFIBBug(s.Topo.ToRs()[0], 1)
		in := monitor.NewInstance("b", s.Datacenter("dc"))
		in.Workers = 4
		stats, err := in.RunCycle()
		if err != nil {
			b.Fatal(err)
		}
		if stats.Violations == 0 {
			b.Fatal("not detected")
		}
	}
}

// BenchmarkE7_Burndown measures the Figure 6 remediation-queue simulation.
func BenchmarkE7_Burndown(b *testing.B) {
	cfg := workload.DefaultBurndownConfig()
	for i := 0; i < b.N; i++ {
		pts := workload.SimulateBurndown(cfg)
		if pts[len(pts)-1].TotalFrac > 0.2 {
			b.Fatal("no burndown")
		}
	}
}

// BenchmarkE8_ACLLatency measures a SecGuru contract-suite check against
// Edge-ACL-shaped policies (§3.2: few hundred rules ≈300ms, few thousand
// ≈1s in the paper's setup).
func BenchmarkE8_ACLLatency(b *testing.B) {
	cs := workload.EdgeContracts()
	for _, n := range []int{100, 300, 1000, 3000} {
		params := workload.EdgeACLParams{
			ServiceRules:    n * 8 / 10,
			DuplicateDenies: n / 10,
			ZeroDayDenies:   maxInt(0, n-n*8/10-n/10-15),
			Seed:            7,
		}
		pol := workload.GenerateLegacyEdgeACL(params)
		b.Run(fmt.Sprintf("rules=%d", len(pol.Rules)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := secguru.Check(pol, cs)
				if err != nil {
					b.Fatal(err)
				}
				if !rep.OK() {
					b.Fatal("unexpected failures")
				}
			}
		})
	}
}

// BenchmarkE9_Refactor measures one full phased refactoring run with
// prechecks and postchecks (Figure 11).
func BenchmarkE9_Refactor(b *testing.B) {
	params := workload.EdgeACLParams{ServiceRules: 600, DuplicateDenies: 90, ZeroDayDenies: 80, Seed: 7}
	for i := 0; i < b.N; i++ {
		legacy := workload.GenerateLegacyEdgeACL(params)
		pl := &secguru.Plan{
			TestDevice: secguru.NewDevice("t", 0, 0, legacy),
			Devices:    []*secguru.Device{secguru.NewDevice("d", 0, 0, legacy)},
			Contracts:  workload.EdgeContracts(),
		}
		for _, st := range workload.BuildRefactorPlan(legacy) {
			res, err := pl.Apply(st.Change)
			if err != nil {
				b.Fatal(err)
			}
			if !res.PrecheckOK || !res.PostcheckOK {
				b.Fatal("refactor step failed")
			}
		}
	}
}

// BenchmarkE10_NSGIssues measures the Figure 12 simulation (every change
// checked by the real engine).
func BenchmarkE10_NSGIssues(b *testing.B) {
	cfg := workload.NSGIssuesConfig{
		Days: 60, LaunchDay: 5, MaxCustomers: 200, AdoptPerDay: 10,
		ChangeProb: 0.05, BreakProb: 0.3,
		GuardDay: 30, GuardRampDays: 10, MTTRDays: 5, Seed: 99,
	}
	for i := 0; i < b.N; i++ {
		if _, err := workload.SimulateNSGIssues(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11_FirewallGate measures template generation plus the §3.5
// deployment gate.
func BenchmarkE11_FirewallGate(b *testing.B) {
	infra, _ := ParsePrefix("168.63.129.0/24")
	tenant, _ := ParsePrefix("10.4.0.0/16")
	other, _ := ParsePrefix("10.5.0.0/16")
	tmpl := secguru.FirewallTemplate{
		Infrastructure: []ipnet.Prefix{infra},
		TenantRanges:   []ipnet.Prefix{tenant},
		OtherTenants:   []ipnet.Prefix{other},
	}
	for i := 0; i < b.N; i++ {
		cfg := tmpl.Generate()
		if err := secguru.GateDeployment(cfg, tmpl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12_Precheck measures one emulated precheck of a dangerous
// change (Figure 7): clone production, re-converge BGP, validate, diff.
func BenchmarkE12_Precheck(b *testing.B) {
	topo := topology.MustNew(topology.Figure3Params())
	pipe := &emulator.Pipeline{Production: emulator.NewNetwork(topo)}
	leaf := topo.ClusterLeaves(0)[0]
	change := emulator.SetConfig{Device: leaf, Config: bgp.DeviceConfig{RejectDefaultIn: true}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pipe.Precheck(change)
		if err != nil {
			b.Fatal(err)
		}
		if res.Approved {
			b.Fatal("dangerous change approved")
		}
	}
}

// BenchmarkE13_MonitorThroughput measures one monitoring cycle for a
// ~1000-device datacenter (§2.6.1).
func BenchmarkE13_MonitorThroughput(b *testing.B) {
	topo := topology.MustNew(experiments.SizedParams("e13", 1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := monitor.NewInstance("inst", monitor.NewDatacenter("dc", topo, nil))
		in.Workers = 16
		stats, err := in.RunCycle()
		if err != nil {
			b.Fatal(err)
		}
		if stats.Violations != 0 {
			b.Fatal("unexpected violations")
		}
	}
}

// BenchmarkE13c_DegradedCycle measures one monitoring cycle under fault
// injection: 10% transient pull failures plus a dead device, exercising
// the retry/backoff and stale carry-forward paths.
func BenchmarkE13c_DegradedCycle(b *testing.B) {
	topo := topology.MustNew(experiments.SizedParams("e13c", 1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := workload.NewScenario(topo)
		sc.TransientPullRate = 0.10
		sc.FaultSeed = 17
		sc.InjectTelemetryLoss(topo.ToRs()[0])
		in := monitor.NewInstance("inst", sc.Datacenter("dc"))
		in.Workers = 16
		stats, err := in.RunCycle()
		if err != nil {
			b.Fatal(err)
		}
		if stats.PullFailures == 0 {
			b.Fatal("fault injection inactive")
		}
	}
}

// BenchmarkE14_Claim1Trial measures one local-vs-global consistency trial.
func BenchmarkE14_Claim1Trial(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		p := topology.Params{
			Name: "c1", Clusters: 2, ToRsPerCluster: 3, LeavesPerCluster: 2,
			SpinesPerPlane: 2, RegionalSpines: 2, RSLinksPerSpine: 2,
		}
		topo := topology.MustNew(p)
		if rng.Intn(2) == 1 {
			topo.Links[rng.Intn(len(topo.Links))].Up = false
		}
		facts := metadata.FromTopology(topo)
		src := bgp.NewSynth(topo, nil)
		v := rcdc.Validator{Workers: 1}
		rep, err := v.ValidateAll(facts, src)
		if err != nil {
			b.Fatal(err)
		}
		g, err := rcdc.NewGlobalChecker(topo, src)
		if err != nil {
			b.Fatal(err)
		}
		fails := g.Check(rcdc.FullRedundancy)
		if rep.Failures == 0 && len(fails) != 0 {
			b.Fatal("Claim 1 violated")
		}
	}
}

// Ablation benches for the design choices DESIGN.md calls out.

// BenchmarkAblation_SATLearning measures the SAT solver with and without
// clause learning / VSIDS on a policy-shaped query.
func BenchmarkAblation_SATLearning(b *testing.B) {
	pol := workload.GenerateLegacyEdgeACL(workload.EdgeACLParams{
		ServiceRules: 150, DuplicateDenies: 20, ZeroDayDenies: 20, Seed: 7})
	cs := workload.EdgeContracts()
	b.Run("cdcl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := secguru.Check(pol, cs); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The no-learning/no-VSIDS ablations live at the sat layer; exercised
	// through its own tests. Here we at least pin the CDCL cost.
}

// BenchmarkAblation_BGPSimVsSynth compares the full path-vector simulation
// against the analytic converged-state synthesizer on the same topology.
func BenchmarkAblation_BGPSimVsSynth(b *testing.B) {
	p := topology.Params{
		Name: "ab", Clusters: 4, ToRsPerCluster: 8, LeavesPerCluster: 4,
		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
	}
	b.Run("sim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			topo := topology.MustNew(p)
			sim := bgp.NewSim(topo, nil)
			sim.Run()
			if _, err := sim.Table(topo.ToRs()[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("synth", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			topo := topology.MustNew(p)
			synth := bgp.NewSynth(topo, nil)
			if _, err := synth.Table(topo.ToRs()[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkColdSweepStages splits a fresh datacenter's first sweep — the
// fleet_sweep benchmark's seeded 2008-device fleet, as the facade's default
// Validate runs it — into stages, each timed on its own and reported as
// its median in µs: facts (metadata.FromTopology), synth (bgp.NewSynth),
// facts+synth (the two built side by side as two par.For jobs on all
// CPUs, which is what the engine's first Validate does), layout (the
// contract generator's prefix layout, which its first Runs builds) and
// check (ValidateAll on all CPUs over that synth and generator).
func BenchmarkColdSweepStages(b *testing.B) {
	topo := seededFleet()
	workers := runtime.GOMAXPROCS(0)
	c := clock.System{}
	stages := map[string][]time.Duration{}
	timed := func(name string, f func()) {
		start := c.Now()
		f()
		stages[name] = append(stages[name], clock.Since(c, start))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var facts *metadata.Facts
		var synth *bgp.Synth
		timed("facts", func() { facts = metadata.FromTopology(topo) })
		timed("synth", func() { synth = bgp.NewSynth(topo, nil) })
		timed("facts+synth", func() {
			par.For(2, workers, func(_, j int) {
				if j == 0 {
					synth = bgp.NewSynth(topo, nil)
				} else {
					facts = metadata.FromTopology(topo)
				}
			})
		})
		gen := contracts.NewGenerator(facts)
		timed("layout", func() { gen.Runs(0, nil) })
		var rep *rcdc.Report
		var err error
		timed("check", func() { rep, err = (&rcdc.Validator{Contracts: gen}).ValidateAll(facts, synth) })
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failures == 0 {
			b.Fatal("the seeded faults turned no device red")
		}
	}
	b.StopTimer()
	for _, name := range []string{"facts", "synth", "facts+synth", "layout", "check"} {
		d := stages[name]
		slices.Sort(d)
		b.ReportMetric(float64(d[len(d)/2].Nanoseconds())/1e3, name+"-µs")
	}
}

// BenchmarkFIBTextFormat measures Figure 2 rendering and parsing.
func BenchmarkFIBTextFormat(b *testing.B) {
	topo := topology.MustNew(experiments.SizedParams("fib", 300))
	src := bgp.NewSynth(topo, nil)
	tbl, err := src.Table(topo.ToRs()[0])
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.WriteText(&buf, topo); err != nil {
		b.Fatal(err)
	}
	text := buf.String()
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := tbl.WriteText(&buf, topo); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fib.ParseText(strings.NewReader(text), tbl.Device, topo); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkACLParsers measures the Figure 8/9 parsers.
func BenchmarkACLParsers(b *testing.B) {
	pol := workload.GenerateLegacyEdgeACL(workload.EdgeACLParams{
		ServiceRules: 800, DuplicateDenies: 100, ZeroDayDenies: 85, Seed: 7})
	var ios bytes.Buffer
	if err := acl.WriteIOS(&ios, pol); err != nil {
		b.Fatal(err)
	}
	iosText := ios.String()
	var nsg bytes.Buffer
	if err := acl.WriteNSG(&nsg, pol); err != nil {
		b.Fatal(err)
	}
	nsgText := nsg.String()
	b.Run("ios", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := acl.ParseIOS("p", strings.NewReader(iosText)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nsg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := acl.ParseNSG("p", strings.NewReader(nsgText)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
