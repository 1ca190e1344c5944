package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dcvalidate/internal/engine"
	"dcvalidate/internal/serve"
	"dcvalidate/internal/topology"
)

// serve_mixed: reads beside writes on the serving plane. The real
// dcvalidated binary (520 devices, -warm, single engine) runs as a
// subprocess on a free loopback port — loopback, not a real link, so wire
// latency is not measured. Two closed-loop keep-alive connections read
// 70 % /device, 15 % /reach, 10 % /summary, 5 % /violations; on
// connection 0 a seeded write is due every 500 ms, timed from its due
// time, and followed by GET /device on an endpoint until the answer
// carries the write's generation. Several boots give set-up a median.

const requestTimeout = 10 * time.Second

// buildServer compiles cmd/dcvalidated into a fresh temporary directory
// and returns the binary's path; the directory is removed by the cleanup.
func buildServer(ctx context.Context, root string) (bin string, cleanup func(), err error) {
	dir, err := os.MkdirTemp("", "benchmark-dcvalidated-")
	if err != nil {
		return "", nil, err
	}
	cleanup = func() { os.RemoveAll(dir) }
	bin = filepath.Join(dir, "dcvalidated")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/dcvalidated")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		cleanup()
		return "", nil, fmt.Errorf("building dcvalidated: %w\n%s", err, out)
	}
	return bin, cleanup, nil
}

// server is one running dcvalidated subprocess.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	boot time.Duration
}

// startServer boots dcvalidated on a free loopback port and waits until
// it answers /healthz and /summary; boot is the time that took.
func startServer(ctx context.Context, bin string, p topology.Params) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd := exec.CommandContext(ctx, bin, "-addr", addr, "-warm",
		"-clusters", strconv.Itoa(p.Clusters), "-tors", strconv.Itoa(p.ToRsPerCluster),
		"-leaves", strconv.Itoa(p.LeavesPerCluster), "-spines", strconv.Itoa(p.SpinesPerPlane),
		"-rs", strconv.Itoa(p.RegionalSpines), "-rslinks", strconv.Itoa(p.RSLinksPerSpine))
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr}
	client := &http.Client{Timeout: requestTimeout}
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, fmt.Errorf("dcvalidated did not answer /healthz within 30 s: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := getJSON[summaryDoc](client, s.base+"/summary"); err != nil {
		s.stop()
		return nil, err
	}
	s.boot = time.Since(start)
	return s, nil
}

// stop kills the subprocess and waits for it to end.
func (s *server) stop() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// The response documents the load generator reads.
type (
	deviceDoc struct {
		Device     string `json:"device"`
		Conformant bool   `json:"conformant"`
		Generation uint64 `json:"generation"`
	}
	appliedDoc struct {
		Generation uint64 `json:"generation"`
	}
	summaryDoc struct {
		Devices    int    `json:"devices"`
		Healthy    int    `json:"healthy"`
		Violating  int    `json:"violating"`
		Contracts  int    `json:"contracts"`
		Violations int    `json:"violations"`
		Generation uint64 `json:"generation"`
	}
)

// do issues one request and drains the body; any transport error, timeout
// or non-2xx status is a failed operation.
func do(client *http.Client, method, url string) ([]byte, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

func getJSON[T any](client *http.Client, url string) (T, error) {
	var doc T
	body, err := do(client, http.MethodGet, url)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return doc, fmt.Errorf("GET %s: %w", url, err)
	}
	return doc, nil
}

// connection is one closed-loop keep-alive client connection.
func newConnection() *http.Client {
	return &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// readMix draws the next read URL: 70 % /device over rotating names,
// 15 % /reach between rotating ToRs, 10 % /summary, 5 % /violations.
type readMix struct {
	rng     *rand.Rand
	base    string
	devices []string
	tors    []string
	next    int
}

func (m *readMix) url() string {
	m.next++
	switch n := m.rng.Intn(100); {
	case n < 70:
		return m.base + "/device?name=" + m.devices[(m.next*7)%len(m.devices)]
	case n < 85:
		return m.base + "/reach?src=" + m.tors[(m.next*3)%len(m.tors)] + "&dst=" + m.tors[(m.next*11+1)%len(m.tors)]
	case n < 95:
		return m.base + "/summary"
	}
	return m.base + "/violations"
}

// interval is one timed read on the observing connection.
type interval struct{ start, end time.Time }

// writeRecord is one scheduled write: its due-time accounting, the POST's
// acknowledgement, and the window in which the plane was revalidating.
type writeRecord struct {
	ev    event
	times lateness // due → sent → fresh read done
	ack   time.Duration
}

// load is everything one boot's load phase observed.
type load struct {
	reads    samples // µs, both connections
	perSec   []int   // reads completed in each second of the load, both connections
	writes   []writeRecord
	observed []interval // connection 1's reads
}

// runLoad drives the two connections against a booted server for the
// given time — a little longer if that is what minWrites writes take, but
// never past a dead server or a cancelled run — and returns what it saw.
func runLoad(ctx context.Context, res *result, s *server, gen *eventGen, model *topology.Topology, seed int64, d time.Duration, every time.Duration, minWrites int) *load {
	names := deviceNames(model)
	var tors []string
	for _, t := range model.ToRs() {
		tors = append(tors, model.Device(t).Name)
	}
	ld := &load{}
	var mu sync.Mutex // guards res and ld.reads across the two connections
	op := func(err error) bool {
		mu.Lock()
		defer mu.Unlock()
		return res.op(err)
	}
	start := time.Now()
	record := func(took time.Duration, err error) {
		mu.Lock()
		defer mu.Unlock()
		if res.op(err) {
			ld.reads.add(us(took))
			second := int(time.Since(start) / time.Second)
			for len(ld.perSec) <= second {
				ld.perSec = append(ld.perSec, 0)
			}
			ld.perSec[second]++
		}
	}
	deadline := start.Add(d)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Connection 1: reads only; its intervals are what reader stall is
	// read off.
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := newConnection()
		mix := &readMix{rng: rand.New(rand.NewSource(seed + 1)), base: s.base, devices: names, tors: tors}
		for {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			_, err := do(client, http.MethodGet, mix.url())
			t1 := time.Now()
			record(t1.Sub(t0), err)
			ld.observed = append(ld.observed, interval{t0, t1})
		}
	}()

	// Connection 0: reads, plus the write schedule.
	client := newConnection()
	mix := &readMix{rng: rand.New(rand.NewSource(seed)), base: s.base, devices: names, tors: tors}
	due := start.Add(every)
	grace := deadline.Add(requestTimeout)
	for ctx.Err() == nil && (time.Now().Before(deadline) || (len(ld.writes) < minWrites && time.Now().Before(grace))) {
		if time.Now().Before(due) {
			t0 := time.Now()
			_, err := do(client, http.MethodGet, mix.url())
			record(time.Since(t0), err)
			continue
		}
		ev := gen.next()
		w := writeRecord{ev: ev}
		w.times.due, w.times.sent = due, time.Now()
		body, err := do(client, http.MethodPost, s.base+ev.httpWrite())
		w.ack = time.Since(w.times.sent)
		var applied appliedDoc
		if err == nil {
			err = json.Unmarshal(body, &applied)
		}
		for ok := op(err); ok; {
			doc, err := getJSON[deviceDoc](client, s.base+"/device?name="+ev.query)
			if err == nil && doc.Generation < applied.Generation && time.Since(w.times.sent) > requestTimeout {
				err = fmt.Errorf("%s: no read carried generation %d within %s", ev, applied.Generation, requestTimeout)
			}
			if ok = op(err); !ok {
				break
			}
			if doc.Generation >= applied.Generation {
				w.times.done = time.Now()
				mu.Lock()
				// A failed link leaves its endpoint red; with every fault
				// restored the endpoint is green again.
				if !ev.restore {
					res.expect(!doc.Conformant, "%s: endpoint %s still conformant at generation %d", ev, ev.query, doc.Generation)
				} else if len(gen.outstanding) == 0 {
					res.expect(doc.Conformant, "%s: fleet healthy again but endpoint %s not conformant", ev, ev.query)
				}
				mu.Unlock()
				ld.writes = append(ld.writes, w)
				break
			}
		}
		due = due.Add(every)
	}
	close(stop)
	wg.Wait()
	ld.perSec = ld.perSec[:max(0, len(ld.perSec)-1)] // the last second is partial
	return ld
}

// readerStalls returns, per write, the longest read on the observing
// connection that overlapped the write's revalidation window.
func readerStalls(writes []writeRecord, observed []interval) samples {
	var out samples
	for _, w := range writes {
		longest := time.Duration(0)
		// observed is in start order; find the first read ending after
		// the write was sent.
		i := sort.Search(len(observed), func(i int) bool { return !observed[i].end.Before(w.times.sent) })
		for ; i < len(observed) && observed[i].start.Before(w.times.done); i++ {
			longest = max(longest, observed[i].end.Sub(observed[i].start))
		}
		out.addMs(longest)
	}
	return out
}

// serveRun is what both the untraced and the traced serve_mixed runs
// share: boots, load, and the oracle against each boot's final state.
type serveRun struct {
	boots  samples // s
	rss    float64 // MB, max over boots
	loads  []*load
	scrape []map[string]float64 // /metrics deltas per boot (traced run)
}

func driveServer(e *env, res *result, scrapeMetrics bool) (*serveRun, error) {
	p := sizedParams(e.sizes.serveDevices)
	model, err := topology.New(p)
	if err != nil {
		return nil, err
	}
	bin, cleanup, err := buildServer(e.ctx, e.root)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	run := &serveRun{}
	perBoot := time.Duration(e.sizes.serveSeconds * float64(time.Second))
	if e.opts.seconds > 0 {
		perBoot = e.measureFor() / time.Duration(e.sizes.serveRounds)
	}
	for round := 0; round < e.sizes.serveRounds; round++ {
		s, err := startServer(e.ctx, bin, p)
		if err != nil {
			return nil, err
		}
		err = func() error {
			defer s.stop()
			run.boots.addSeconds(s.boot)
			client := &http.Client{Timeout: requestTimeout}
			var before map[string]float64
			if scrapeMetrics {
				if before, err = scrape(client, s.base); err != nil {
					return err
				}
			}
			// Every scheduled write flips a ToR–leaf link: one class keeps
			// write → fresh read unimodal (a leaf–spine flip revalidates a
			// fortieth of the devices and would split the samples in two).
			gen := newEventGen(e.opts.seed*1000+int64(round), model, torLeafOnly)
			ld := runLoad(e.ctx, res, s, gen, model, e.opts.seed*1000+int64(round), perBoot, e.sizes.writeEvery, 2)
			run.loads = append(run.loads, ld)
			if err := e.ctx.Err(); err != nil {
				return err
			}
			if scrapeMetrics {
				after, err := scrape(client, s.base)
				if err != nil {
					return err
				}
				for k, v := range before {
					after[k] -= v
				}
				run.scrape = append(run.scrape, after)
			}
			rss, err := peakRSSMB(s.cmd.Process.Pid)
			if err != nil {
				return err
			}
			run.rss = max(run.rss, rss)

			// Oracle: the served summary equals an in-process from-scratch
			// sweep of the same fleet state, with the faults still
			// outstanding and again after restoring them all.
			if err := checkSummary(res, client, s.base, p, gen.outstanding, fmt.Sprintf("boot %d end of load", round)); err != nil {
				return err
			}
			for _, ev := range gen.drain() {
				if _, err := do(client, http.MethodPost, s.base+ev.httpWrite()); err != nil {
					return err
				}
			}
			return checkSummary(res, client, s.base, p, nil, fmt.Sprintf("boot %d final healthy state", round))
		}()
		if err != nil {
			return nil, err
		}
	}
	return run, nil
}

func checkSummary(res *result, client *http.Client, base string, p topology.Params, outstanding []event, at string) error {
	got, err := getJSON[summaryDoc](client, base+"/summary")
	if err != nil {
		return err
	}
	truth, err := truthSweep(p, outstanding)
	if err != nil {
		return err
	}
	healthy := 0
	for i := range truth.Devices {
		if truth.Devices[i].Healthy() {
			healthy++
		}
	}
	want := summaryDoc{Devices: len(truth.Devices), Healthy: healthy, Violating: len(truth.Devices) - healthy,
		Contracts: truth.Checked, Violations: truth.Failures, Generation: got.Generation}
	res.expect(got == want, "%s: /summary %+v, from-scratch sweep says %+v", at, got, want)
	return nil
}

func runServeMixed(e *env) (*result, error) {
	res := newResult("serve_mixed")
	run, err := driveServer(e, res, false)
	if err != nil {
		return nil, err
	}
	var reads, fresh, rate samples // rate: reads completed, one sample per second of load
	for _, ld := range run.loads {
		reads = append(reads, ld.reads...)
		for _, n := range ld.perSec {
			rate.add(float64(n))
		}
		for _, w := range ld.writes {
			fresh.addMs(w.times.latency())
		}
	}
	res.row("setup_s", run.boots)
	res.set("peak_rss_mb", run.rss)
	res.row("change_to_verdict_p50_ms", fresh)
	res.row("repeat_verdict_p50_us", reads)
	res.row("repeat_verdicts_per_s", rate)
	res.counts["boots"] = int64(len(run.loads))
	return res, nil
}

// scrape reads the server's /metrics into a map keyed by the exposition's
// series text (name plus labels).
func scrape(client *http.Client, base string) (map[string]float64, error) {
	body, err := do(client, http.MethodGet, base+"/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// readKinds are the four read endpoints with their share of the mix.
var readKinds = []struct {
	name  string
	share float64
}{{"device", 0.70}, {"reach", 0.15}, {"summary", 0.10}, {"violations", 0.05}}

// traceServeMixed splits a read's latency where the benchmark can reach:
// an in-process engine and serve.Server of the same 520-device fleet are
// timed handler by handler into a recorder (cache hits), and again by
// calling engine.Query* directly, so handler − direct is what the JSON
// encoding and request accounting cost. The subprocess is then driven
// over loopback exactly as in the untraced run; what its reads take
// beyond the in-process handler is the loopback overhead, and its
// /metrics before and after give the engine's hit ratio and the sweeps
// each write caused.
func traceServeMixed(e *env) (*result, error) {
	res := newResult("serve_mixed")
	p := sizedParams(e.sizes.serveDevices)
	topo, err := topology.New(p)
	if err != nil {
		return nil, err
	}
	eng := engine.New(topo, nil)
	srv := serve.New(eng)
	tor0, tor1 := topo.Device(topo.ToRs()[0]).Name, topo.Device(topo.ToRs()[len(topo.ToRs())-1]).Name
	if _, err := eng.Summary(); err != nil {
		return nil, err
	}
	if _, err := eng.QueryReach(tor0, tor1); err != nil {
		return nil, err
	}
	urls := map[string]string{
		"device": "/device?name=" + tor0, "reach": "/reach?src=" + tor0 + "&dst=" + tor1,
		"summary": "/summary", "violations": "/violations",
	}
	direct := map[string]func() error{
		"device":     func() error { _, err := eng.QueryDevice(tor0); return err },
		"reach":      func() error { _, err := eng.QueryReach(tor0, tor1); return err },
		"summary":    func() error { _, err := eng.Summary(); return err },
		"violations": func() error { _, _, err := eng.QueryViolations(); return err },
	}
	const calls = 400
	tr := newTracer()
	handlerMix, directMix, bytesMix := 0.0, 0.0, 0.0
	for _, k := range readKinds {
		var size int
		for i := 0; i < calls; i++ {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, urls[k.name], nil)
			sp := tr.begin("serve.handler."+k.name, -1)
			srv.ServeHTTP(rec, req)
			tr.end(sp)
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("in-process GET %s: status %d", urls[k.name], rec.Code)
			}
			size = rec.Body.Len()
			sp = tr.begin("engine.query."+k.name, -1)
			err := direct[k.name]()
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
		handler := tr.durations("serve.handler." + k.name).median()
		res.row("serve.handler_"+k.name+"_us", tr.durations("serve.handler."+k.name))
		handlerMix += k.share * handler
		directMix += k.share * tr.durations("engine.query."+k.name).median()
		bytesMix += k.share * float64(size)
	}
	res.set("serve.encode_self_us", handlerMix-directMix)
	res.set("serve.response_bytes", bytesMix)
	res.set("trace.overhead_share", tr.overheadShare())

	run, err := driveServer(e, res, true)
	if err != nil {
		return nil, err
	}
	var reads, acks, lags, stalls samples
	writes := 0
	for _, ld := range run.loads {
		reads = append(reads, ld.reads...)
		for _, w := range ld.writes {
			acks.add(us(w.ack))
			lags.addMs(w.times.lag())
		}
		stalls = append(stalls, readerStalls(ld.writes, ld.observed)...)
		writes += len(ld.writes)
	}
	res.set("serve.loopback_overhead_us", reads.median()-handlerMix)
	res.set("serve.read_p99_us", quantile(reads.sorted(), 0.99))
	res.row("serve.write_ack_us", acks)
	res.row("serve.generator_lag_ms", lags)
	res.row("serve.reader_stall_p50_ms", stalls)
	hits, misses, sweeps := 0.0, 0.0, 0.0
	for _, d := range run.scrape {
		hits += d["dcv_serve_cache_hits_total"]
		misses += d["dcv_serve_cache_misses_total"]
		sweeps += d[`dcv_serve_sweeps_total{mode="single"}`]
	}
	res.set("engine.cache_hit_ratio", safeDiv(hits, hits+misses))
	res.set("engine.sweeps_per_write", safeDiv(sweeps, float64(writes)))
	// A write schedule that ran more than 50 ms late no longer offered
	// the load it claims to have offered.
	res.expect(lags.median() <= 50, "write generator ran %.1f ms late (median); the run is invalid", lags.median())
	return res, nil
}
