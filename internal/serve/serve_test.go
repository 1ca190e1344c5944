package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dcvalidate/internal/engine"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/topology"
)

func newTestServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	topo, err := topology.New(topology.Params{
		Name: "dc", Clusters: 2, ToRsPerCluster: 4, LeavesPerCluster: 2,
		SpinesPerPlane: 2, RegionalSpines: 2, RSLinksPerSpine: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(topo, nil)
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)
	return ts, eng
}

// get decodes a JSON response into out and returns the status code.
func get(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s: %v\nbody: %s", url, err, body)
		}
	}
	return resp.StatusCode
}

func post(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding POST %s: %v\nbody: %s", url, err, body)
		}
	}
	return resp.StatusCode
}

// sample reads a metric value from the registry; labels are alternating
// key/value pairs that must all match.
func sample(reg *obs.Registry, name string, labels ...string) float64 {
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

func TestServeEndpoints(t *testing.T) {
	ts, eng := newTestServer(t)
	reg := eng.Metrics()
	tor := "dc-c0-t0-0"
	leaf := "dc-c0-t1-0"
	remote := "dc-c1-t0-0"

	// Liveness first: no sweep has run yet.
	var hz struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
	}
	if code := get(t, ts.URL+"/healthz", &hz); code != 200 {
		t.Fatalf("/healthz = %d", code)
	}
	if hz.Status != "ok" {
		t.Fatalf("healthz = %+v", hz)
	}

	// Cold device query sweeps the fleet; repeats are cache hits.
	var dev struct {
		Device     string   `json:"device"`
		Role       string   `json:"role"`
		Conformant bool     `json:"conformant"`
		Cached     bool     `json:"cached"`
		Violations []string `json:"violations"`
	}
	if code := get(t, ts.URL+"/device?name="+tor, &dev); code != 200 {
		t.Fatalf("/device = %d", code)
	}
	if dev.Device != tor || !dev.Conformant || len(dev.Violations) != 0 {
		t.Fatalf("device answer = %+v", dev)
	}
	if misses := sample(reg, "dcv_serve_cache_misses_total"); misses != 1 {
		t.Fatalf("cache misses after cold query = %v, want 1", misses)
	}
	hitsBefore := sample(reg, "dcv_serve_cache_hits_total")
	for i := 0; i < 3; i++ {
		var repeat struct {
			Cached bool `json:"cached"`
		}
		get(t, ts.URL+"/device?name="+tor, &repeat)
		if !repeat.Cached {
			t.Fatalf("repeat query %d not served from cache", i)
		}
	}
	if hits := sample(reg, "dcv_serve_cache_hits_total"); hits != hitsBefore+3 {
		t.Fatalf("cache hits = %v, want %v", hits, hitsBefore+3)
	}
	if sweeps := sample(reg, "dcv_serve_sweeps_total", "mode", "single"); sweeps != 1 {
		t.Fatalf("sweeps after repeats = %v, want 1 (cached queries must not revalidate)", sweeps)
	}

	// Fleet summary agrees with the healthy topology.
	var sum struct {
		Devices   int  `json:"devices"`
		Healthy   int  `json:"healthy"`
		Violating int  `json:"violating"`
		Cached    bool `json:"cached"`
	}
	if code := get(t, ts.URL+"/summary", &sum); code != 200 {
		t.Fatalf("/summary = %d", code)
	}
	if sum.Violating != 0 || sum.Healthy != sum.Devices || !sum.Cached {
		t.Fatalf("summary = %+v", sum)
	}

	// Healthy reachability between clusters.
	var reach struct {
		Reaches bool `json:"reaches"`
		MinHops int  `json:"min_hops"`
	}
	if code := get(t, ts.URL+"/reach?src="+tor+"&dst="+remote, &reach); code != 200 {
		t.Fatalf("/reach = %d", code)
	}
	if !reach.Reaches || reach.MinHops < 2 {
		t.Fatalf("reach = %+v", reach)
	}

	// Failing a link through the API bumps the generation and invalidates
	// the serving cache: the next device query must re-sweep.
	var applied struct {
		Applied    string `json:"applied"`
		Generation uint64 `json:"generation"`
	}
	if code := post(t, ts.URL+"/link?a="+tor+"&b="+leaf+"&action=fail", &applied); code != 200 {
		t.Fatalf("POST /link = %d", code)
	}
	if applied.Applied != "fail" || applied.Generation == 0 {
		t.Fatalf("apply = %+v", applied)
	}
	var after struct {
		Cached     bool     `json:"cached"`
		Violations []string `json:"violations"`
	}
	get(t, ts.URL+"/device?name="+tor, &after)
	if after.Cached {
		t.Fatal("query after mutation claimed to be cached")
	}
	if sample(reg, "dcv_serve_cache_misses_total") != 2 {
		t.Fatal("mutation did not invalidate the serving cache")
	}

	// The violations feed renders canonical strings.
	var viol struct {
		Generation uint64   `json:"generation"`
		Count      int      `json:"count"`
		Violations []string `json:"violations"`
	}
	if code := get(t, ts.URL+"/violations", &viol); code != 200 {
		t.Fatalf("/violations = %d", code)
	}
	if viol.Count != len(viol.Violations) || viol.Generation != applied.Generation {
		t.Fatalf("violations = %+v", viol)
	}

	// Restore via the session/link endpoints; fleet converges healthy again.
	if code := post(t, ts.URL+"/link?a="+tor+"&b="+leaf+"&action=restore", nil); code != 200 {
		t.Fatalf("POST /link restore = %d", code)
	}
	if code := post(t, ts.URL+"/session?a="+tor+"&b="+leaf+"&action=shut", nil); code != 200 {
		t.Fatalf("POST /session shut = %d", code)
	}
	if code := post(t, ts.URL+"/session?a="+tor+"&b="+leaf+"&action=restore", nil); code != 200 {
		t.Fatalf("POST /session restore = %d", code)
	}
	get(t, ts.URL+"/summary", &sum)
	if sum.Violating != 0 {
		t.Fatalf("restored fleet still violating: %+v", sum)
	}

	// /metrics serves Prometheus text including the serve series.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content-type = %q", ct)
	}
	for _, want := range []string{"dcv_serve_cache_hits_total", "dcv_serve_requests_total"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
}

func TestServeErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	tor := "dc-c0-t0-0"

	cases := []struct {
		method, path string
		want         int
	}{
		{"GET", "/device", 400},                                   // missing name
		{"GET", "/device?name=ghost", 404},                        // unknown device
		{"GET", "/reach?src=" + tor, 400},                         // missing dst
		{"GET", "/reach?src=" + tor + "&dst=not-a-prefix", 400},   // unresolvable dst
		{"GET", "/reach?src=" + tor + "&dst=203.0.113.0/24", 404}, // unhosted prefix
		{"GET", "/reach?src=ghost&dst=" + tor, 404},               // unknown src
		{"POST", "/link?a=" + tor, 400},                           // missing operands
		{"POST", "/link?a=" + tor + "&b=" + tor + "&action=melt", 400},
		{"POST", "/link?a=ghost&b=" + tor + "&action=fail", 404},         // unknown device
		{"POST", "/session?a=" + tor + "&b=dc-c1-t1-0&action=shut", 400}, // no link between
	}
	for _, c := range cases {
		var code int
		var errBody struct {
			Error string `json:"error"`
		}
		if c.method == "GET" {
			code = get(t, ts.URL+c.path, &errBody)
		} else {
			code = post(t, ts.URL+c.path, &errBody)
		}
		if code != c.want {
			t.Errorf("%s %s = %d, want %d", c.method, c.path, code, c.want)
		}
		if errBody.Error == "" {
			t.Errorf("%s %s: no error message in body", c.method, c.path)
		}
	}

	// Wrong method on a registered path is 405 from the mux.
	resp, err := http.Post(ts.URL+"/summary", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /summary = %d, want 405", resp.StatusCode)
	}
}

func TestServeRequestAccounting(t *testing.T) {
	ts, eng := newTestServer(t)
	reg := eng.Metrics()

	for i := 0; i < 2; i++ {
		get(t, ts.URL+"/healthz", nil)
	}
	get(t, ts.URL+"/device?name=ghost", nil)

	if n := sample(reg, "dcv_serve_requests_total", "path", "/healthz", "code", "200"); n != 2 {
		t.Fatalf("requests{/healthz,200} = %v, want 2", n)
	}
	if n := sample(reg, "dcv_serve_requests_total", "path", "/device", "code", "404"); n != 1 {
		t.Fatalf("requests{/device,404} = %v, want 1", n)
	}
}

// TestServeRequestSeriesBounded: paths no route matches share one
// "other" series, so clients cannot grow the registry one URL at a time.
func TestServeRequestSeriesBounded(t *testing.T) {
	ts, eng := newTestServer(t)
	reg := eng.Metrics()
	series := func() int {
		n := 0
		for _, s := range reg.Snapshot() {
			if s.Name == "dcv_serve_requests_total" {
				n++
			}
		}
		return n
	}
	get(t, ts.URL+"/healthz", nil)
	before := series()
	for i := 0; i < 500; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/x%d", ts.URL, i))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if grown := series() - before; grown > 1 {
		t.Fatalf("500 unknown paths added %d request series, want at most 1", grown)
	}
	if n := sample(reg, "dcv_serve_requests_total", "path", "other", "code", "404"); n != 500 {
		t.Fatalf("requests{other,404} = %v, want 500", n)
	}
}

// TestNewHTTPServer: every listener gets the fixed header and idle
// timeouts and no write timeout.
func TestNewHTTPServer(t *testing.T) {
	h := http.NotFoundHandler()
	srv := NewHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Fatalf("server = %+v", srv)
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || srv.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v", srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("a cold sweep must not be cut off: WriteTimeout=%v ReadTimeout=%v", srv.WriteTimeout, srv.ReadTimeout)
	}
}

// TestServeFlipRechecksRows: a ToR–leaf flip served over HTTP re-checks
// rows, not the fleet — fewer contracts than one full sweep holds — and
// the flipped device's next answer is fresh and non-conformant. The cold
// serving sweep and the scoped re-check both take the runs path: each
// decides clean run segments.
func TestServeFlipRechecksRows(t *testing.T) {
	ts, eng := newTestServer(t)
	reg := eng.Metrics()
	clean := func() float64 { return sample(reg, "dcv_rcdc_runs_total", "outcome", "clean") }
	var sum struct {
		Contracts int `json:"contracts"`
	}
	if code := get(t, ts.URL+"/summary", &sum); code != 200 {
		t.Fatalf("/summary = %d", code)
	}
	cold := clean()
	if cold == 0 {
		t.Fatal("the cold serving sweep decided no clean run segment")
	}
	if code := post(t, ts.URL+"/link?a=dc-c0-t0-0&b=dc-c0-t1-0&action=fail", nil); code != 200 {
		t.Fatalf("POST /link = %d", code)
	}
	var dev struct {
		Conformant bool `json:"conformant"`
		Cached     bool `json:"cached"`
	}
	if code := get(t, ts.URL+"/device?name=dc-c0-t0-0", &dev); code != 200 || dev.Conformant || dev.Cached {
		t.Fatalf("/device after the flip = %d %+v", code, dev)
	}
	rechecked := sample(reg, "dcv_rcdc_delta_contracts_checked_sum")
	if rechecked == 0 || rechecked >= float64(sum.Contracts) {
		t.Fatalf("contracts re-checked after a ToR–leaf flip = %v, fleet holds %d", rechecked, sum.Contracts)
	}
	// Every other ToR and the regional spines keep a subset of their
	// expected next hops toward the flipped ToR's prefix: each decides its
	// scoped row as one clean segment.
	if scoped := sample(reg, "dcv_delta_scoped_devices_total"); clean()-cold < scoped/2 {
		t.Fatalf("the re-check after the flip decided %v clean run segments for %v scoped devices", clean()-cold, scoped)
	}
}
