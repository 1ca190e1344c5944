package engine

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"dcvalidate/internal/clock"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// The Query API: the serving-layer questions the paper's monitoring
// pipeline answers continuously — "is device X conformant?", "can prefix
// A reach B?", "how healthy is the fleet?":
//
//   - conformance and fleet health come from the generation-keyed report
//     cache (last complete sweep + a device-name index), refreshed through
//     the blast-radius delta path over the engine's synth, so steady-state
//     repeats are O(1) map hits with zero revalidation work;
//   - reachability walks the forwarding slice of (source, destination
//     prefix) over the runs that synth derives, device by device, and
//     derives counterexample packets for failing trajectories; no table is
//     copied.
//
// Cached queries take only the read lock, so they proceed concurrently
// with each other; a stale cache upgrades to the write lock, re-checks
// (another query may have refreshed meanwhile — that still counts as a
// hit), and revalidates only the journaled blast radius. A reachability
// query takes the write lock only to bring the synthesis state up to the
// topology generation, and walks under the read lock.

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
// Cached reports that the synthesis state was already at the answer's
// generation, so the query ran no refresh.
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
	e.serveM.observeSweep(len(rep.Devices))
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
		s := summaryFrom(e.report, true)
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
	s := summaryFrom(rep, cached)
	e.mu.Unlock()
	e.serveM.observeQuery("summary", clock.Since(c, start))
	return s, nil
}

// summaryFrom derives the fleet summary from a report.
func summaryFrom(rep *rcdc.Report, cached bool) *Summary {
	s := &Summary{
		Devices:    len(rep.Devices),
		Contracts:  rep.Checked,
		Violations: rep.Failures,
		HighRisk:   rep.HighRisk(),
		Generation: rep.Generation,
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
// device name (all its hosted prefixes) or a CIDR prefix, which the first
// ToR hosting it, in ToR order, answers for. ParsePrefix rejects host
// bits, so equal prefix values are equal prefixes.
func reachTargets(topo *topology.Topology, dst string) ([]topology.HostedPrefix, error) {
	if dev, ok := topo.ByName(dst); ok {
		if len(dev.HostedPrefixes) == 0 {
			return nil, fmt.Errorf("dcvalidate: device %q hosts no prefixes", dst)
		}
		hps := make([]topology.HostedPrefix, len(dev.HostedPrefixes))
		for i, p := range dev.HostedPrefixes {
			hps[i] = topology.HostedPrefix{Prefix: p, ToR: dev.ID, Cluster: dev.Cluster}
		}
		return hps, nil
	}
	pfx, err := ipnet.ParsePrefix(dst)
	if err != nil {
		return nil, fmt.Errorf("dcvalidate: destination %q is neither a device nor a prefix", dst)
	}
	for _, tor := range topo.ToRs() {
		dev := topo.Device(tor)
		if slices.Contains(dev.HostedPrefixes, pfx) {
			return []topology.HostedPrefix{{Prefix: pfx, ToR: tor, Cluster: dev.Cluster}}, nil
		}
	}
	return nil, fmt.Errorf("dcvalidate: no ToR hosts prefix %s", pfx)
}

// reachAnswer traces every target prefix through g and aggregates. Safe
// under the read lock: g's walks only read the synthesis state, deriving
// each hop's runs into the walk's own buffer.
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
// device name or a CIDR prefix, by walking the forwarding cone over the
// maintained synthesis under the read lock; when the synthesis state is behind
// the topology, the write lock is taken first to bring it up to date. A
// failing answer carries a counterexample packet — the concrete header and
// hop-by-hop trajectory ending where it is dropped, looped, or
// misdelivered.
func (e *Engine) QueryReach(src, dst string) (*ReachAnswer, error) {
	e.mu.RLock()
	m, c := e.serveM, clock.Or(e.clk)
	var start time.Time
	if m != nil {
		start = c.Now()
	}
	ans, err := e.reachLocked(src, dst, e.freshenRLocked())
	e.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	if m != nil {
		m.observeQuery("reach", clock.Since(c, start))
	}
	return ans, nil
}

// freshenRLocked brings the synthesis up to date with the topology for a
// caller holding the read lock, taking the write lock only while it is
// behind, and reports whether it was current already. The caller holds the
// read lock again on return.
func (e *Engine) freshenRLocked() bool {
	cached := true
	for e.synth == nil || e.synth.Generation() != e.topo.Generation() {
		e.mu.RUnlock()
		e.mu.Lock()
		e.freshSourceLocked()
		e.mu.Unlock()
		e.mu.RLock()
		cached = false
	}
	return cached
}

// reachLocked resolves operands and walks the maintained synthesis; caller
// holds a lock and has brought the synthesis up to date.
func (e *Engine) reachLocked(src, dst string, cached bool) (*ReachAnswer, error) {
	sdev, ok := e.topo.ByName(src)
	if !ok {
		return nil, fmt.Errorf("dcvalidate: unknown device %q", src)
	}
	hps, err := reachTargets(e.topo, dst)
	if err != nil {
		return nil, err
	}
	return e.reachAnswer(rcdc.NewSliceChecker(e.topo, e.synth), sdev, dst, hps, e.topo.Generation(), cached), nil
}
