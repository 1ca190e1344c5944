package engine

import (
	"fmt"
	"sort"

	"dcvalidate/internal/clock"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// The Query API: the serving-layer questions the paper's monitoring
// pipeline answers continuously — "is device X conformant?", "can prefix
// A reach B?", "how healthy is the fleet?" — backed by two
// generation-keyed caches so steady-state repeat queries are O(1) map
// hits with zero revalidation work:
//
//   - the report cache (last complete sweep + a device-name index),
//     refreshed through the blast-radius delta path over the engine's
//     cached FIB source — its own synth, or the shard coordinator;
//   - the global snapshot cache behind reachability queries, which also
//     derives counterexample packets for failing trajectories.
//
// Cached queries take only the read lock, so they proceed concurrently
// with each other; a stale cache upgrades to the write lock, re-checks
// (another query may have refreshed meanwhile — that still counts as a
// hit), and revalidates only the journaled blast radius.

// DeviceAnswer answers "is device X conformant?".
type DeviceAnswer struct {
	Device     string           `json:"device"`
	Role       string           `json:"role"`
	Conformant bool             `json:"conformant"`
	Contracts  int              `json:"contracts"`
	Violations []rcdc.Violation `json:"violations,omitempty"`
	Generation uint64           `json:"generation"`
	Cached     bool             `json:"cached"`
}

// Counterexample is a concrete packet demonstrating a failed reachability
// query: a header addressed into the destination prefix plus the
// hop-by-hop trajectory ending where the packet dies.
type Counterexample struct {
	SrcIP   string   `json:"src_ip,omitempty"`
	DstIP   string   `json:"dst_ip"`
	Path    []string `json:"path"`
	DropsAt string   `json:"drops_at"`
	Reason  string   `json:"reason"` // no-route, wrong-delivery, loop
}

// ReachAnswer answers "can traffic from src reach dst?". When dst is a
// device hosting several prefixes, the answer aggregates over all of
// them: Reaches means every prefix is reached on every ECMP branch.
type ReachAnswer struct {
	Src            string          `json:"src"`
	Dst            string          `json:"dst"`
	Prefixes       []string        `json:"prefixes"`
	Reaches        bool            `json:"reaches"`
	Dropped        bool            `json:"dropped"`
	MinHops        int             `json:"min_hops"`
	MaxHops        int             `json:"max_hops"`
	Paths          int             `json:"paths"`
	Counterexample *Counterexample `json:"counterexample,omitempty"`
	Generation     uint64          `json:"generation"`
	Cached         bool            `json:"cached"`
}

// Summary answers "how healthy is the fleet?".
type Summary struct {
	Devices    int    `json:"devices"`
	Healthy    int    `json:"healthy"`
	Violating  int    `json:"violating"`
	Contracts  int    `json:"contracts"`
	Violations int    `json:"violations"`
	HighRisk   int    `json:"high_risk"`
	Generation uint64 `json:"generation"`
	Shards     int    `json:"shards"`
	Cached     bool   `json:"cached"`
}

// ensureReportLocked returns a report reflecting the current topology
// generation, refreshing the cache when stale. Caller holds the write
// lock. The bool reports whether the cache answered (a hit).
func (e *Engine) ensureReportLocked() (*rcdc.Report, bool, error) {
	gen := e.topo.Generation()
	if e.report != nil && e.report.Generation == gen {
		e.serveM.hit()
		return e.report, true, nil
	}
	e.serveM.miss()
	mode := "single"
	if e.shards != nil {
		mode = "sharded"
	}
	rep, err := e.validateDeltaLocked(e.report, Options{})
	if err != nil {
		return nil, false, err
	}
	if !sameDevices(e.report, rep) {
		e.reportIdx = make(map[string]int, len(rep.Devices))
		for i := range rep.Devices {
			e.reportIdx[rep.Devices[i].Name] = i
		}
	}
	e.report = rep
	e.serveM.observeSweep(mode, len(rep.Devices))
	return rep, false, nil
}

// sameDevices reports whether two reports list the same devices at the
// same positions — what a delta splice leaves behind — so a name index
// built for one serves the other.
func sameDevices(a, b *rcdc.Report) bool {
	if a == nil || len(a.Devices) != len(b.Devices) {
		return false
	}
	for i := range a.Devices {
		if a.Devices[i].Name != b.Devices[i].Name {
			return false
		}
	}
	return true
}

// ensureGlobalLocked returns a global snapshot checker for the current
// generation, rematerializing when stale. Caller holds the write lock.
func (e *Engine) ensureGlobalLocked() (*rcdc.GlobalChecker, bool, error) {
	gen := e.topo.Generation()
	if e.global != nil && e.globalGen == gen {
		e.serveM.snapshot(true)
		return e.global, true, nil
	}
	e.serveM.snapshot(false)
	src := e.cachedSourceLocked()
	src.RefreshDelta(nil, 0)
	g, err := rcdc.NewGlobalChecker(e.topo, src)
	if err != nil {
		return nil, false, err
	}
	e.global = g
	e.globalGen = gen
	return g, false, nil
}

func deviceAnswer(rep *rcdc.Report, i int, cached bool) *DeviceAnswer {
	dr := &rep.Devices[i]
	ans := &DeviceAnswer{
		Device:     dr.Name,
		Role:       dr.Role.String(),
		Conformant: dr.Healthy(),
		Contracts:  dr.Contracts,
		Generation: rep.Generation,
		Cached:     cached,
	}
	for _, v := range dr.Violations {
		ans.Violations = append(ans.Violations, v.Clone())
	}
	return ans
}

// QueryDevice answers "is device name conformant?" from the report
// cache. On a hit this is an O(1) index lookup under the read lock; on a
// miss only the journaled blast radius is revalidated first.
func (e *Engine) QueryDevice(name string) (*DeviceAnswer, error) {
	e.mu.RLock()
	c := clock.Or(e.clk)
	start := c.Now()
	if e.report != nil && e.report.Generation == e.topo.Generation() {
		if i, ok := e.reportIdx[name]; ok {
			ans := deviceAnswer(e.report, i, true)
			e.serveM.hit()
			e.mu.RUnlock()
			e.serveM.observeQuery("device", clock.Since(c, start))
			return ans, nil
		}
		e.mu.RUnlock()
		return nil, fmt.Errorf("dcvalidate: unknown device %q", name)
	}
	e.mu.RUnlock()

	e.mu.Lock()
	rep, cached, err := e.ensureReportLocked()
	if err != nil {
		e.mu.Unlock()
		return nil, err
	}
	i, ok := e.reportIdx[name]
	if !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("dcvalidate: unknown device %q", name)
	}
	ans := deviceAnswer(rep, i, cached)
	e.mu.Unlock()
	e.serveM.observeQuery("device", clock.Since(c, start))
	return ans, nil
}

// Summary answers "how healthy is the fleet?" from the report cache.
func (e *Engine) Summary() (*Summary, error) {
	e.mu.RLock()
	c := clock.Or(e.clk)
	start := c.Now()
	if e.report != nil && e.report.Generation == e.topo.Generation() {
		s := e.summaryFrom(e.report, true)
		e.serveM.hit()
		e.mu.RUnlock()
		e.serveM.observeQuery("summary", clock.Since(c, start))
		return s, nil
	}
	e.mu.RUnlock()

	e.mu.Lock()
	rep, cached, err := e.ensureReportLocked()
	if err != nil {
		e.mu.Unlock()
		return nil, err
	}
	s := e.summaryFrom(rep, cached)
	e.mu.Unlock()
	e.serveM.observeQuery("summary", clock.Since(c, start))
	return s, nil
}

// summaryFrom derives the fleet summary; caller holds at least the read
// lock (for the shard width).
func (e *Engine) summaryFrom(rep *rcdc.Report, cached bool) *Summary {
	s := &Summary{
		Devices:    len(rep.Devices),
		Contracts:  rep.Checked,
		Violations: rep.Failures,
		HighRisk:   rep.HighRisk(),
		Generation: rep.Generation,
		Shards:     e.shardsLocked(),
		Cached:     cached,
	}
	for i := range rep.Devices {
		if rep.Devices[i].Healthy() {
			s.Healthy++
		} else {
			s.Violating++
		}
	}
	return s
}

// QueryViolations returns every current violation (deep-copied, so
// callers may mutate freely) plus the generation it reflects.
func (e *Engine) QueryViolations() ([]rcdc.Violation, uint64, error) {
	e.mu.Lock()
	rep, _, err := e.ensureReportLocked()
	if err != nil {
		e.mu.Unlock()
		return nil, 0, err
	}
	vs := rep.Violations()
	gen := rep.Generation
	e.mu.Unlock()
	return vs, gen, nil
}

// reachTargets resolves the dst operand of a reachability query: a
// device name (all its hosted prefixes) or a CIDR prefix.
func reachTargets(topo *topology.Topology, dst string) ([]topology.HostedPrefix, error) {
	if dev, ok := topo.ByName(dst); ok {
		if len(dev.HostedPrefixes) == 0 {
			return nil, fmt.Errorf("dcvalidate: device %q hosts no prefixes", dst)
		}
		var hps []topology.HostedPrefix
		for _, hp := range topo.HostedPrefixes() {
			if hp.ToR == dev.ID {
				hps = append(hps, hp)
			}
		}
		return hps, nil
	}
	pfx, err := ipnet.ParsePrefix(dst)
	if err != nil {
		return nil, fmt.Errorf("dcvalidate: destination %q is neither a device nor a prefix", dst)
	}
	want := pfx.String()
	for _, hp := range topo.HostedPrefixes() {
		if hp.Prefix.String() == want {
			return []topology.HostedPrefix{hp}, nil
		}
	}
	return nil, fmt.Errorf("dcvalidate: no ToR hosts prefix %s", want)
}

// reachAnswer traces every target prefix through the snapshot and
// aggregates. Pure reads on g; safe under the read lock.
func (e *Engine) reachAnswer(g *rcdc.GlobalChecker, src *topology.Device, dst string, hps []topology.HostedPrefix, gen uint64, cached bool) *ReachAnswer {
	ans := &ReachAnswer{
		Src: src.Name, Dst: dst,
		Reaches:    true,
		MinHops:    -1,
		Generation: gen,
		Cached:     cached,
	}
	var srcIP string
	if len(src.HostedPrefixes) > 0 {
		srcIP = src.HostedPrefixes[0].First().String()
	}
	for _, hp := range hps {
		ans.Prefixes = append(ans.Prefixes, hp.Prefix.String())
		r := g.CheckPair(src.ID, hp)
		if !r.Reaches {
			ans.Reaches = false
		}
		if r.Dropped {
			ans.Dropped = true
		}
		if r.Reaches {
			if ans.MinHops < 0 || r.MinHops < ans.MinHops {
				ans.MinHops = r.MinHops
			}
			if r.MaxHops > ans.MaxHops {
				ans.MaxHops = r.MaxHops
			}
			if ans.Paths == 0 || r.Paths < ans.Paths {
				ans.Paths = r.Paths
			}
		}
		if ans.Counterexample == nil && (!r.Reaches || r.Dropped) {
			if path, reason, ok := g.CounterexamplePath(src.ID, hp); ok {
				ce := &Counterexample{
					SrcIP:  srcIP,
					DstIP:  hp.Prefix.First().String(),
					Reason: reason,
				}
				for _, d := range path {
					ce.Path = append(ce.Path, e.topo.Device(d).Name)
				}
				ce.DropsAt = ce.Path[len(ce.Path)-1]
				ans.Counterexample = ce
			}
		}
	}
	sort.Strings(ans.Prefixes)
	return ans
}

// QueryReach answers "can traffic from src reach dst?" where dst is a
// device name or a CIDR prefix. On a hit the trace runs against the
// cached global snapshot under the read lock; a failing answer carries a
// counterexample packet — the concrete header and hop-by-hop trajectory
// ending where it is dropped, looped, or misdelivered.
func (e *Engine) QueryReach(src, dst string) (*ReachAnswer, error) {
	e.mu.RLock()
	c := clock.Or(e.clk)
	start := c.Now()
	if e.global != nil && e.globalGen == e.topo.Generation() {
		ans, err := e.reachLocked(e.global, src, dst, true)
		if err == nil {
			e.serveM.snapshot(true)
		}
		e.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		e.serveM.observeQuery("reach", clock.Since(c, start))
		return ans, nil
	}
	e.mu.RUnlock()

	e.mu.Lock()
	g, cached, err := e.ensureGlobalLocked()
	if err != nil {
		e.mu.Unlock()
		return nil, err
	}
	ans, err := e.reachLocked(g, src, dst, cached)
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	e.serveM.observeQuery("reach", clock.Since(c, start))
	return ans, nil
}

// reachLocked resolves operands and traces; caller holds a lock.
func (e *Engine) reachLocked(g *rcdc.GlobalChecker, src, dst string, cached bool) (*ReachAnswer, error) {
	sdev, ok := e.topo.ByName(src)
	if !ok {
		return nil, fmt.Errorf("dcvalidate: unknown device %q", src)
	}
	hps, err := reachTargets(e.topo, dst)
	if err != nil {
		return nil, err
	}
	return e.reachAnswer(g, sdev, dst, hps, e.topo.Generation(), cached), nil
}
