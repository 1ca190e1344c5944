// Package serve exposes the validation engine's query API over HTTP —
// the dcvalidated server. It is a thin, stdlib-only shim: every question
// is answered by the engine — from its generation-keyed report cache, or
// for reachability by a walk over the runs its synth derives — so the
// handlers add
// JSON encoding and request accounting, nothing more.
//
// Endpoints:
//
//	GET  /healthz                     liveness + topology generation
//	GET  /summary                     fleet health aggregate
//	GET  /device?name=X               per-device conformance + violations
//	GET  /reach?src=X&dst=Y           reachability (dst: device or prefix)
//	GET  /violations                  every current violation
//	GET  /metrics                     Prometheus text exposition
//	POST /link?a=X&b=Y&action=fail|restore       flip a link
//	POST /session?a=X&b=Y&action=shut|restore    flip a BGP session
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"dcvalidate/internal/engine"
	"dcvalidate/internal/obs"
)

// Server answers validation queries over HTTP. Create one with New; it
// implements http.Handler and is safe for concurrent use (the engine
// serializes internally; cached queries run concurrently).
type Server struct {
	eng      *engine.Engine
	mux      *http.ServeMux
	routes   map[string]string // mux pattern -> path label
	requests *obs.CounterVec   // dcv_serve_requests_total{path,code}
}

// New wires a server over the engine, instrumenting requests into the
// engine's metric registry (created on demand).
func New(eng *engine.Engine) *Server {
	reg := eng.Metrics()
	s := &Server{
		eng: eng,
		requests: reg.CounterVec("dcv_serve_requests_total",
			"HTTP requests served by path and status code.", "path", "code"),
	}
	s.mux = http.NewServeMux()
	s.routes = map[string]string{}
	handle := func(pattern string, h http.Handler) {
		s.mux.Handle(pattern, h)
		_, path, _ := strings.Cut(pattern, " ")
		s.routes[pattern] = path
	}
	handle("GET /healthz", http.HandlerFunc(s.handleHealthz))
	handle("GET /summary", http.HandlerFunc(s.handleSummary))
	handle("GET /device", http.HandlerFunc(s.handleDevice))
	handle("GET /reach", http.HandlerFunc(s.handleReach))
	handle("GET /violations", http.HandlerFunc(s.handleViolations))
	handle("GET /metrics", reg.Handler())
	handle("POST /link", http.HandlerFunc(s.handleLink))
	handle("POST /session", http.HandlerFunc(s.handleSession))
	return s
}

// Timeouts of every listener built by NewHTTPServer. A client gets
// readHeaderTimeout to finish its request headers and an idle keep-alive
// connection is closed after idleTimeout, so slow or silent clients
// cannot pin connections forever. There is deliberately no write
// timeout: a cold fleet sweep behind one query may outlast any fixed
// bound.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns the http.Server every command listens through:
// handler h on addr, with the fixed header and idle timeouts above.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// statusWriter captures the response code for request accounting.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP dispatches through the mux and counts the request under the
// path of the route that matched — or "other" when none did — so the
// series stay bounded whatever paths clients send.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h, pattern := s.mux.Handler(r)
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	h.ServeHTTP(sw, r)
	path, ok := s.routes[pattern]
	if !ok {
		path = "other"
	}
	s.requests.With(path, fmt.Sprintf("%d", sw.code)).Inc()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeErr maps engine errors onto status codes: unresolvable operands
// are 404, malformed requests 400, everything else 500.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	msg := err.Error()
	switch {
	case strings.Contains(msg, "unknown device") ||
		strings.Contains(msg, "no ToR hosts") ||
		strings.Contains(msg, "hosts no prefixes"):
		code = http.StatusNotFound
	case strings.Contains(msg, "neither a device nor a prefix") ||
		strings.Contains(msg, "no link between"):
		code = http.StatusBadRequest
	}
	writeJSON(w, code, map[string]string{"error": msg})
}

func badRequest(w http.ResponseWriter, format string, args ...any) {
	writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"generation": s.eng.Topo().Generation(),
	})
}

func (s *Server) handleSummary(w http.ResponseWriter, _ *http.Request) {
	sum, err := s.eng.Summary()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sum)
}

func (s *Server) handleDevice(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		badRequest(w, "missing ?name= parameter")
		return
	}
	ans, err := s.eng.QueryDevice(name)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Violations render as their canonical strings: the structured form
	// leaks internal device IDs and prefix encodings that mean nothing to
	// an HTTP caller.
	out := struct {
		*engine.DeviceAnswer
		Violations []string `json:"violations,omitempty"`
	}{DeviceAnswer: ans}
	for _, v := range ans.Violations {
		out.Violations = append(out.Violations, v.String())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleReach(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	src, dst := q.Get("src"), q.Get("dst")
	if src == "" || dst == "" {
		badRequest(w, "missing ?src= or ?dst= parameter")
		return
	}
	ans, err := s.eng.QueryReach(src, dst)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ans)
}

func (s *Server) handleViolations(w http.ResponseWriter, _ *http.Request) {
	vs, gen, err := s.eng.QueryViolations()
	if err != nil {
		writeErr(w, err)
		return
	}
	out := struct {
		Generation uint64   `json:"generation"`
		Count      int      `json:"count"`
		Violations []string `json:"violations,omitempty"`
	}{Generation: gen, Count: len(vs)}
	for _, v := range vs {
		out.Violations = append(out.Violations, v.String())
	}
	writeJSON(w, http.StatusOK, out)
}

// handleLink flips a link: POST /link?a=X&b=Y&action=fail|restore.
func (s *Server) handleLink(w http.ResponseWriter, r *http.Request) {
	s.applyChange(w, r, map[string]engine.ChangeKind{
		"fail": engine.FailLink, "restore": engine.RestoreLink,
	})
}

// handleSession flips a BGP session: POST /session?a=X&b=Y&action=shut|restore.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	s.applyChange(w, r, map[string]engine.ChangeKind{
		"shut": engine.ShutSession, "restore": engine.RestoreSession,
	})
}

func (s *Server) applyChange(w http.ResponseWriter, r *http.Request, kinds map[string]engine.ChangeKind) {
	q := r.URL.Query()
	a, b, action := q.Get("a"), q.Get("b"), q.Get("action")
	kind, ok := kinds[action]
	if a == "" || b == "" || !ok {
		allowed := make([]string, 0, len(kinds))
		for k := range kinds {
			allowed = append(allowed, k)
		}
		sort.Strings(allowed) // map iteration order must not leak into responses
		badRequest(w, "need ?a=&b=&action= (action: %s)", strings.Join(allowed, "|"))
		return
	}
	if err := s.eng.Apply(engine.Change{Kind: kind, A: a, B: b}); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"applied":    action,
		"generation": s.eng.Topo().Generation(),
	})
}
