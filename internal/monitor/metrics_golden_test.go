package monitor

import (
	"bytes"
	"dcvalidate/internal/bgp"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dcvalidate/internal/clock"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestMetricsGoldenExposition runs a fixed monitoring scenario — full
// sweep, quiet delta cycle, link-repair delta cycle — entirely on a
// virtual clock and compares the registry's Prometheus exposition
// byte-for-byte against testdata/metrics_golden.prom. Everything that
// feeds the registry is deterministic here: the pull latency model is
// pre-seeded per job, the modeled makespan is computed over a pinned
// worker count, and the virtual clock never advances, so any diff means
// recording or exposition changed behavior. Regenerate with
// `go test ./internal/monitor -run Golden -update`.
func TestMetricsGoldenExposition(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	topo.FailLink(topo.ToRs()[0], topo.ClusterLeaves(0)[0])
	dc := NewDatacenter("fig3", topo, nil)
	in := NewInstance("golden", dc)
	// Workers is part of the golden contract: the modeled pull makespan
	// depends on the pool size, so it must not float with GOMAXPROCS.
	in.Workers = 2
	in.Clock = clock.NewVirtual(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC))
	in.SkipUnchanged = true
	in.Incremental = true
	reg := obs.NewRegistry()
	in.EnableObservability(reg)
	// A table-cached source, so the link repair below also pins what the
	// cache does with a bounded delta: rows patched in place on row-scoped
	// devices, the one whole device evicted.
	synth := dc.Source.(*bgp.Synth)
	synth.EnableTableCache()
	synth.Metrics = bgp.NewMetrics(reg)

	for cycle := 1; cycle <= 2; cycle++ {
		if _, err := in.RunCycle(); err != nil {
			t.Fatal(err)
		}
	}
	topo.RestoreAll() // journaled link repair -> bounded delta cycle
	if _, err := in.RunCycle(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := reg.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("exposition is not byte-deterministic across writes")
	}

	golden := filepath.Join("testdata", "metrics_golden.prom")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from %s (re-run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s",
			golden, buf.Bytes(), want)
	}
}
