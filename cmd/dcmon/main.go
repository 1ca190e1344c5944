// Command dcmon runs the RCDC live-monitoring loop interactively: it
// generates a datacenter, injects a latent-error backlog across the §2.6.2
// taxonomy, then runs monitoring cycles — detection, triage, automatic
// remediation, and a bounded manual-remediation budget draining the
// highest-risk queue first — printing the alert burndown as it happens.
//
// Telemetry faults degrade the pipeline itself: -pullfail injects
// transient pull failures (retried with backoff), -dead kills device
// management planes until remediated, -corrupt mangles store documents.
//
// With -metrics-addr the process serves the observability registry as
// Prometheus text on /metrics plus the standard net/http/pprof profiles
// on /debug/pprof/, and stays up after the run until interrupted. All
// durations dcmon reports come from the instance clock through the
// metrics registry — the command itself never reads the wall clock.
//
// With -explore-k N the run starts by certifying the clean topology
// against every combination of up to N link/device/session failures
// (symmetry-pruned failure-space exploration), printing the violating
// equivalence classes and their minimal failure sets before the
// monitoring loop begins.
//
// The -engine flag swaps the per-device verification engine — trie
// (default), smt, or pec (packet equivalence classes) — without changing
// any verdict.
//
// Usage:
//
//	dcmon -clusters 6 -tors 12 -faults 24 -cycles 14 -fix 4
//	dcmon -faults 10 -pullfail 0.1 -dead 2 -cycles 16
//	dcmon -faults 0 -cycles 3 -metrics-addr :9090
//	dcmon -clusters 2 -tors 4 -faults 0 -cycles 1 -explore-k 1
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dcvalidate/internal/engine"
	"dcvalidate/internal/explore"
	"dcvalidate/internal/monitor"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/pec"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/serve"
	"dcvalidate/internal/topology"
	"dcvalidate/internal/workload"
)

func main() {
	var (
		clusters    = flag.Int("clusters", 6, "clusters")
		tors        = flag.Int("tors", 12, "ToRs per cluster")
		leaves      = flag.Int("leaves", 4, "leaves per cluster")
		spines      = flag.Int("spines", 2, "spines per plane")
		rs          = flag.Int("rs", 4, "regional spines")
		rslinks     = flag.Int("rslinks", 2, "RS links per spine")
		faults      = flag.Int("faults", 24, "latent faults to inject")
		cycles      = flag.Int("cycles", 14, "monitoring cycles to run")
		fix         = flag.Int("fix", 4, "manual remediations per cycle")
		seed        = flag.Int64("seed", 77, "fault-injection seed")
		incr        = flag.Bool("incremental", true, "change-driven cycles: validate only the blast radius of journaled changes")
		sweep       = flag.Int("fullsweep-every", 0, "force a full sweep every N incremental cycles (0 = default)")
		pullfail    = flag.Float64("pullfail", 0, "transient pull-failure rate per attempt (0-1)")
		dead        = flag.Int("dead", 0, "devices with a dead management plane (telemetry loss)")
		corrupt     = flag.Float64("corrupt", 0, "store-document corruption rate per write (0-1)")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (e.g. :9090) and linger after the run until interrupted")
		exploreK    = flag.Int("explore-k", 0, "before fault injection, certify contracts up to k simultaneous failures (symmetry-pruned failure-space exploration; 0 = off)")
		engineName  = flag.String("engine", "", "verification engine: trie (default), smt, or pec")
	)
	flag.Parse()
	kind, err := engine.ParseKind(*engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcmon:", err)
		os.Exit(2)
	}

	topo, err := topology.New(topology.Params{
		Name: "dcmon", Clusters: *clusters, ToRsPerCluster: *tors,
		LeavesPerCluster: *leaves, SpinesPerPlane: *spines,
		RegionalSpines: *rs, RSLinksPerSpine: *rslinks,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcmon:", err)
		os.Exit(2)
	}
	reg := obs.NewRegistry()

	// Failure-space certification runs against the clean topology, before
	// any latent faults exist: it answers "which contracts survive any k
	// simultaneous failures" for the intended network, not a broken one.
	if *exploreK > 0 {
		ex := explore.Explorer{Topo: topo, Opts: explore.Options{
			K: *exploreK, Metrics: explore.NewMetrics(reg),
		}}
		res, err := ex.Run()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcmon: explore:", err)
			os.Exit(2)
		}
		fmt.Printf("dcmon: explored failure space up to k=%d: %d scenarios over %d fault sites as %d equivalence classes (%.1fx pruning, %d symmetry generators) in %s\n",
			*exploreK, res.Total, res.Universe, res.Explored,
			res.PruningRatio(), res.Generators, res.Elapsed.Round(time.Millisecond))
		if len(res.Violating) == 0 {
			fmt.Printf("dcmon: all contracts hold under every <=%d-failure scenario\n", *exploreK)
		} else {
			fmt.Printf("dcmon: %d violating class(es) covering %d scenario(s); %d minimal failure set(s):\n",
				len(res.Violating), violatingWeight(res), len(res.MinimalSets))
			for i, ms := range res.MinimalSets {
				if i == 8 {
					fmt.Printf("  ... %d more\n", len(res.MinimalSets)-i)
					break
				}
				var fs []string
				for _, f := range ms.Faults {
					fs = append(fs, f.Describe(topo))
				}
				fmt.Printf("  %s <- {%s}\n", ms.ContractKey, strings.Join(fs, ", "))
			}
		}
		if res.DegradedOnly > 0 {
			fmt.Printf("dcmon: %d class(es) degrade telemetry only (baseline verdict retained)\n", res.DegradedOnly)
		}
		fmt.Println()
	}

	s := workload.NewScenario(topo)
	s.InjectRandom(rand.New(rand.NewSource(*seed)), *faults)
	s.TransientPullRate = *pullfail
	s.CorruptDocRate = *corrupt
	s.FaultSeed = *seed
	for i := 0; i < *dead && i < len(topo.ToRs()); i++ {
		s.InjectTelemetryLoss(topo.ToRs()[i])
	}
	fmt.Printf("dcmon: monitoring %d devices; %d latent faults injected:\n",
		len(topo.Devices), len(s.Injected))
	for _, inj := range s.Injected {
		fmt.Printf("  %s\n", inj)
	}
	fmt.Println()

	in := monitor.NewInstance("dcmon-0", s.Datacenter("dcmon"))
	in.SkipUnchanged = *incr
	in.Incremental = *incr
	in.FullSweepEvery = *sweep
	in.EnableObservability(reg)
	switch kind {
	case engine.KindSMT:
		in.Checker = rcdc.SMTChecker{}
	case engine.KindPEC:
		in.Checker = &pec.Checker{Metrics: pec.NewMetrics(reg)}
	}
	tracker := monitor.NewAlertTracker()

	if *metricsAddr != "" {
		http.Handle("/metrics", reg.Handler())
		go func() {
			if err := serve.NewHTTPServer(*metricsAddr, http.DefaultServeMux).ListenAndServe(); err != nil {
				fmt.Fprintln(os.Stderr, "dcmon: metrics server:", err)
				os.Exit(2)
			}
		}()
		fmt.Printf("dcmon: serving /metrics and /debug/pprof on %s\n\n", *metricsAddr)
	}

	fmt.Printf("%5s %5s %8s %6s %8s %10s %8s %8s %7s %6s %9s %8s %9s %9s %9s\n",
		"cycle", "sweep", "devices", "dirty", "carried", "violations", "skipped", "pullFail", "stale", "unmon",
		"openHigh", "openLow", "autoFix", "manualFix", "valTime")
	cleared := false
	for cycle := 1; cycle <= *cycles; cycle++ {
		stats, err := in.RunCycle()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcmon:", err)
			os.Exit(1)
		}
		pt := tracker.ObserveCycle(stats.Cycle, in.Analytics)

		errs := in.Analytics.Triage(stats.Cycle, in.Datacenters)
		restored, _ := monitor.AutoRemediate(errs, in.Datacenters, s.Lossy)

		classByDev := map[topology.DeviceID]monitor.ErrorClass{}
		for _, te := range errs {
			if _, ok := classByDev[te.Record.Device]; !ok {
				classByDev[te.Record.Device] = te.Class
			}
		}
		manual := 0
		budget := *fix
		for _, al := range tracker.Open() {
			if budget == 0 {
				break
			}
			if class, ok := classByDev[al.Device]; ok && s.Remediate(class, al.Device) {
				budget--
				manual++
			}
		}
		sweepMark := "-"
		if stats.FullSweep {
			sweepMark = "full"
		}
		fmt.Printf("%5d %5s %8d %6d %8d %10d %8d %8d %7d %6d %9d %8d %9d %9d %9s\n",
			cycle, sweepMark, stats.Devices, stats.DirtyDevices, stats.CarriedForward,
			stats.Violations, stats.Skipped,
			stats.PullFailures, stats.StaleDevices, stats.Unmonitored,
			pt.OpenHigh, pt.OpenLow, restored, manual,
			stats.ValidateTime.Round(time.Microsecond).String())
		// Declaring the network clean requires actually observing it: no
		// open alerts AND every device seen this cycle (no pull failures
		// left unaccounted, nobody unmonitored).
		if pt.OpenHigh+pt.OpenLow == 0 && cycle > 1 &&
			stats.PullFailures == 0 && stats.Unmonitored == 0 &&
			stats.Devices == len(topo.Devices) {
			fmt.Println("\ndcmon: backlog clear — network matches intent")
			cleared = true
			break
		}
	}
	open := len(tracker.Open())
	if !cleared && open > 0 {
		fmt.Printf("\ndcmon: %d alert(s) still open after %d cycles\n", open, *cycles)
	}
	printSummary(reg)
	if *metricsAddr != "" {
		fmt.Printf("\ndcmon: metrics server on %s still up — interrupt to exit\n", *metricsAddr)
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
	if !cleared && open > 0 {
		os.Exit(1)
	}
}

// violatingWeight sums the scenario counts the violating equivalence
// classes represent (each class validates once for its whole orbit).
func violatingWeight(r *explore.Result) int {
	n := 0
	for _, sc := range r.Violating {
		n += sc.Weight
	}
	return n
}

// printSummary reports the run's aggregate timings straight from the
// metrics registry: the same series /metrics exposes, so the numbers on
// stdout and the scraped numbers can never disagree.
func printSummary(reg *obs.Registry) {
	want := map[string]float64{
		"dcv_monitor_cycle_seconds_sum":        0,
		"dcv_monitor_cycle_seconds_count":      0,
		"dcv_rcdc_device_check_seconds_sum":    0,
		"dcv_rcdc_devices_checked_total":       0,
		"dcv_monitor_modeled_pull_seconds_sum": 0,
		"dcv_delta_blast_radius_devices_count": 0,
		"dcv_delta_blast_radius_devices_sum":   0,
		"dcv_delta_scoped_devices_total":       0,
		"dcv_delta_whole_devices_total":        0,
		"dcv_delta_dirty_rows_sum":             0,
	}
	for _, s := range reg.Snapshot() {
		if _, ok := want[s.Name]; ok && len(s.Labels) == 0 {
			want[s.Name] = s.Value
		}
	}
	fmt.Printf("\ndcmon: %.0f cycle(s) in %.3fs; %.0f device checks (%.3fs validating, %.3fs modeled pull)\n",
		want["dcv_monitor_cycle_seconds_count"],
		want["dcv_monitor_cycle_seconds_sum"],
		want["dcv_rcdc_devices_checked_total"],
		want["dcv_rcdc_device_check_seconds_sum"],
		want["dcv_monitor_modeled_pull_seconds_sum"])
	if want["dcv_delta_blast_radius_devices_count"] > 0 {
		fmt.Printf("dcmon: %.0f bounded delta(s): %.0f dirty device(s) — %.0f whole, %.0f scoped to %.0f row(s)\n",
			want["dcv_delta_blast_radius_devices_count"],
			want["dcv_delta_blast_radius_devices_sum"],
			want["dcv_delta_whole_devices_total"],
			want["dcv_delta_scoped_devices_total"],
			want["dcv_delta_dirty_rows_sum"])
	}
}
