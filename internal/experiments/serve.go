package experiments

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/engine"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/serve"
	"dcvalidate/internal/shard"
	"dcvalidate/internal/topology"
)

// E19Row is one machine-readable point of the serving-plane experiment
// (serialized into BENCH_serve.json by dcbench): one fleet size with the
// engine's HTTP query latencies cached vs cold and the shard
// coordinator's byte-identity legs.
type E19Row struct {
	Devices     int              `json:"devices"`
	Rechecked   float64          `json:"rechecked"`   // contracts the cold queries' delta revalidations re-checked
	ColdNs      int64            `json:"coldQueryNs"` // HTTP query that must revalidate first
	CachedP50Ns int64            `json:"cachedP50Ns"`
	CachedP99Ns int64            `json:"cachedP99Ns"`
	CachedQPS   float64          `json:"cachedQPS"`
	CacheHits   float64          `json:"cacheHits"` // serve-cache hits during the cached phase
	Coordinator []E19Coordinator `json:"coordinator"`
}

// E19Coordinator is one shard width of the coordinator's identity leg.
type E19Coordinator struct {
	Shards       int   `json:"shards"`
	SweepNs      int64 `json:"sweepNs"`      // cold full sweep through the coordinator
	DeltaSweepNs int64 `json:"deltaSweepNs"` // sweep after one journaled link failure
	Identical    bool  `json:"identical"`    // report byte-identical to the single engine
}

// e19Render is the byte-identity surface of the engine-equivalence gates:
// everything in a report except timing and worker counts.
func e19Render(rep *rcdc.Report) []byte {
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

// e19Truth is a from-scratch single-engine full sweep over the
// topology's current state.
func e19Truth(topo *topology.Topology) *rcdc.Report {
	v := rcdc.Validator{Workers: 2, Metrics: validatorMetrics()}
	rep, err := v.ValidateAll(metadata.FromTopology(topo), bgp.NewSynth(topo, nil))
	if err != nil {
		panic(err)
	}
	return rep
}

// e19Identity certifies the coordinator against the single engine for
// one shard count: a clean full sweep and a journaled-delta sweep after
// a ToR–leaf link failure must both render byte-identically to a
// from-scratch sweep. Any divergence panics (failing make serve-smoke).
// Returns the two coordinator sweep walls.
func e19Identity(topo *topology.Topology, n int) (sweep, deltaSweep time.Duration) {
	co := shard.New(topo, nil, n, shard.Options{Clock: Clock})

	start := now()
	rep, err := co.Sweep()
	if err != nil {
		panic(err)
	}
	sweep = since(start)
	if !bytes.Equal(e19Render(rep), e19Render(e19Truth(topo))) {
		panic(fmt.Sprintf("e19: %d-shard clean sweep diverges from single engine", n))
	}

	tor := topo.ClusterToRs(0)[0]
	leaf := topo.ClusterLeaves(0)[0]
	if !topo.FailLink(tor, leaf) {
		panic("e19: FailLink failed")
	}
	start = now()
	rep, err = co.Sweep()
	if err != nil {
		panic(err)
	}
	deltaSweep = since(start)
	identical := bytes.Equal(e19Render(rep), e19Render(e19Truth(topo)))
	if !topo.RestoreLink(tor, leaf) {
		panic("e19: RestoreLink failed")
	}
	if !identical {
		panic(fmt.Sprintf("e19: %d-shard delta sweep diverges from single engine", n))
	}
	return sweep, deltaSweep
}

// e19Sample reads one registry series (alternating label key/value
// pairs must all match; missing series read as 0).
func e19Sample(reg *obs.Registry, name string, labels ...string) float64 {
	for _, s := range reg.Snapshot() {
		if s.Name != name {
			continue
		}
		match := true
		for i := 0; i+1 < len(labels); i += 2 {
			if s.Labels[labels[i]] != labels[i+1] {
				match = false
				break
			}
		}
		if match {
			return s.Value
		}
	}
	return 0
}

// e19Get issues one GET and drains the body (keep-alive reuse); panics
// on transport errors or non-200s — the loadgen runs against a server
// it just booted, so failures are harness bugs, not results.
func e19Get(client *http.Client, url string) time.Duration {
	start := now()
	resp, err := client.Get(url)
	if err != nil {
		panic(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		panic(err)
	}
	if resp.StatusCode != http.StatusOK {
		panic(fmt.Sprintf("e19: GET %s = %d: %s", url, resp.StatusCode, body))
	}
	return since(start)
}

func e19Percentile(durs []time.Duration, q float64) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// e19Loadgen boots a dcvalidated server over an engine and replays a query stream against it: a few cold queries (each preceded
// by a link flap through the API, so the engine must revalidate) and a
// concurrent cached stream. Two gates are armed: every cached request
// must land as a dcv_serve_cache_hits_total increment, and the cached
// phase must not trigger a single revalidation sweep. rechecked is the
// number of contracts the cold queries' delta revalidations re-checked
// (the first one finds no report and sweeps in full; every later one
// follows a flip of the same ToR–leaf link).
func e19Loadgen(p topology.Params, coldSamples, cachedSamples, concurrency int) (cold, p50, p99 time.Duration, qps, hits, rechecked float64) {
	topo := topology.MustNew(p)
	eng := engine.New(topo, nil)
	reg := eng.Metrics()
	srv := serve.New(eng)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	hs := serve.NewHTTPServer("", srv)
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{}

	// Rotate queries across ToRs in distinct clusters so cached answers
	// exercise different report slots, not one hot row.
	var names []string
	for c := 0; c < topo.Params.Clusters; c++ {
		names = append(names, topo.Device(topo.ClusterToRs(c)[0]).Name)
	}
	tor := topo.Device(topo.ClusterToRs(0)[0]).Name
	leaf := topo.Device(topo.ClusterLeaves(0)[0]).Name

	// Cold: flip the link through the API (invalidate), then query. The
	// measured latency includes the delta revalidation the query forces.
	var coldTotal time.Duration
	for i := 0; i < coldSamples; i++ {
		action := "fail"
		if i%2 == 1 {
			action = "restore"
		}
		resp, err := client.Post(fmt.Sprintf("%s/link?a=%s&b=%s&action=%s", base, tor, leaf, action), "", nil)
		if err != nil {
			panic(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		coldTotal += e19Get(client, base+"/device?name="+names[i%len(names)])
	}
	rechecked = e19Sample(reg, "dcv_rcdc_delta_contracts_checked_sum")
	cold = coldTotal / time.Duration(coldSamples)
	if coldSamples%2 == 1 { // leave the fleet healthy for the cached phase
		resp, err := client.Post(fmt.Sprintf("%s/link?a=%s&b=%s&action=restore", base, tor, leaf), "", nil)
		if err != nil {
			panic(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Warm once so the cached stream starts from a valid report.
	e19Get(client, base+"/device?name="+names[0])

	hitsBefore := e19Sample(reg, "dcv_serve_cache_hits_total")
	sweepsBefore := e19Sample(reg, "dcv_serve_sweeps_total")

	durs := make([][]time.Duration, concurrency)
	var wg sync.WaitGroup
	perWorker := cachedSamples / concurrency
	start := now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &http.Client{}
			for i := 0; i < perWorker; i++ {
				url := base + "/device?name=" + names[(w+i)%len(names)]
				durs[w] = append(durs[w], e19Get(c, url))
			}
		}(w)
	}
	wg.Wait()
	wall := since(start)

	var all []time.Duration
	for _, d := range durs {
		all = append(all, d...)
	}
	hits = e19Sample(reg, "dcv_serve_cache_hits_total") - hitsBefore
	if hits < float64(len(all)) {
		panic(fmt.Sprintf("e19: %d cached queries but only %.0f cache hits — cached serving is not O(1)", len(all), hits))
	}
	if sweeps := e19Sample(reg, "dcv_serve_sweeps_total") - sweepsBefore; sweeps != 0 {
		panic(fmt.Sprintf("e19: cached query stream triggered %.0f revalidation sweep(s)", sweeps))
	}
	return cold, e19Percentile(all, 0.50), e19Percentile(all, 0.99),
		float64(len(all)) / wall.Seconds(), hits, rechecked
}

// E19Serve measures the serving plane end to end: for each fleet size an
// HTTP load generator replays a query stream against a freshly booted
// dcvalidated server, reporting cached p50/p99/QPS against the cold
// (revalidating) latency; then the shard coordinator, kept as an oracle,
// is certified byte-identical to a single-engine sweep (clean and after a
// journaled link failure) for N ∈ {1, 2, 5}. Panic gates arm make
// serve-smoke: byte-identity divergence, a cached query that does not
// increment dcv_serve_cache_hits_total, any revalidation sweep during the
// cached phase, and cold queries that re-checked nothing.
func E19Serve(deviceCounts []int) (Result, []E19Row) {
	const (
		coldSamples   = 2
		cachedSamples = 400
		concurrency   = 4
	)
	shardCounts := []int{1, 2, 5}

	var b strings.Builder
	var rows []E19Row
	fmt.Fprintf(&b, "%10s %9s %10s %11s %11s %9s   %s\n",
		"devices", "rechecked", "coldQuery", "cachedP50", "cachedP99", "QPS", "coordinator shards: sweep/deltaSweep identical")
	for _, n := range deviceCounts {
		p := SizedParams("e19", n)
		cold, p50, p99, qps, hits, rechecked := e19Loadgen(p, coldSamples, cachedSamples, concurrency)
		if rechecked == 0 {
			panic(fmt.Sprintf("e19: the cold queries re-checked no contracts at %d devices — the delta path did not run", n))
		}
		row := E19Row{
			Devices:     len(topology.MustNew(p).Devices),
			Rechecked:   rechecked,
			ColdNs:      cold.Nanoseconds(),
			CachedP50Ns: p50.Nanoseconds(),
			CachedP99Ns: p99.Nanoseconds(),
			CachedQPS:   qps,
			CacheHits:   hits,
		}
		var legs []string
		for _, ns := range shardCounts {
			sweep, deltaSweep := e19Identity(topology.MustNew(p), ns)
			row.Coordinator = append(row.Coordinator, E19Coordinator{
				Shards:       ns,
				SweepNs:      sweep.Nanoseconds(),
				DeltaSweepNs: deltaSweep.Nanoseconds(),
				Identical:    true, // divergence panics in e19Identity
			})
			legs = append(legs, fmt.Sprintf("%d: %s/%s true", ns,
				sweep.Round(time.Millisecond), deltaSweep.Round(time.Millisecond)))
		}
		rows = append(rows, row)
		fmt.Fprintf(&b, "%10d %9.0f %10s %11s %11s %9.0f   %s\n",
			row.Devices, rechecked, cold.Round(time.Microsecond),
			p50.Round(time.Microsecond), p99.Round(time.Microsecond), qps,
			strings.Join(legs, ", "))
	}
	return Result{
		ID:    "E19",
		Title: "serving plane: cache hit rate and query latency, with the shard coordinator as byte-identity oracle",
		Table: b.String(),
		Notes: "cached queries are generation-checked cache hits — O(1), independent of fleet size — while cold queries pay one delta revalidation; QPS is a 4-way concurrent stream over HTTP loopback; the shard coordinator's reports are byte-identical to single-engine sweeps at every shard width (gate armed)",
	}, rows
}
