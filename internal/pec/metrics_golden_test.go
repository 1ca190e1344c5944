package pec

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/clock"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// tableSource serves pre-pulled tables by device.
type tableSource map[topology.DeviceID]*fib.Table

// fleetFixture pulls every Figure 3 table once and returns the fleet
// facts, the tables, and a memoized generator.
func fleetFixture(tb testing.TB) (*metadata.Facts, tableSource, *contracts.Generator) {
	tb.Helper()
	topo := topology.MustNew(topology.Figure3Params())
	facts := metadata.FromTopology(topo)
	synth := bgp.NewSynth(topo, nil)
	src := make(tableSource, len(topo.Devices))
	for i := range topo.Devices {
		id := topo.Devices[i].ID
		tbl, err := synth.Table(id)
		if err != nil {
			tb.Fatal(err)
		}
		src[id] = tbl
	}
	gen := contracts.NewGenerator(facts)
	gen.EnableMemo()
	return facts, src, gen
}

// sweep checks every device on c in facts order.
func sweep(tb testing.TB, c *Checker, facts *metadata.Facts, src tableSource, gen *contracts.Generator) {
	tb.Helper()
	for i := range facts.Devices {
		df := &facts.Devices[i]
		if _, err := c.CheckDevice(src[df.ID], gen.ForDevice(df.ID), df.Role); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestPECMetricsGoldenExposition runs a fixed scenario — cold fleet
// sweep, warm re-sweep, one invalidated device re-checked — entirely on a
// virtual clock and compares the registry's Prometheus exposition
// byte-for-byte against testdata/metrics_golden.prom. The sweep order is
// the facts order and the clock never advances, so any diff means the
// engine's recording or the exposition format changed behavior.
// Regenerate with `go test ./internal/pec -run Golden -update`.
func TestPECMetricsGoldenExposition(t *testing.T) {
	facts, src, gen := fleetFixture(t)
	reg := obs.NewRegistry()
	c := &Checker{
		Clock:   clock.NewVirtual(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)),
		Metrics: NewMetrics(reg),
	}
	sweep(t, c, facts, src, gen) // cold: every device atomizes
	sweep(t, c, facts, src, gen) // warm: device-cache hits only

	// Invalidate one ToR: its next check misses and re-atomizes.
	var tor topology.DeviceID
	for i := range facts.Devices {
		if facts.Devices[i].Role == topology.RoleToR {
			tor = facts.Devices[i].ID
			break
		}
	}
	c.Invalidate([]topology.DeviceID{tor})
	if _, err := c.CheckDevice(src[tor], gen.ForDevice(tor), topology.RoleToR); err != nil {
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
