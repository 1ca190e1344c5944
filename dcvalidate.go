// Package dcvalidate is a reproduction of "Validating Datacenters At
// Scale" (SIGCOMM 2019): the RCDC dataplane checker that validates every
// device's forwarding table against local contracts derived automatically
// from the datacenter architecture, and the SecGuru policy analyzer that
// validates ACLs, network security groups, and distributed firewalls
// against reachability contracts using bit-vector satisfiability checking.
//
// The package is a facade over the implementation packages. A typical RCDC
// workflow:
//
//	dc, _ := dcvalidate.NewDatacenter(dcvalidate.TopologyParams{
//		Clusters: 4, ToRsPerCluster: 16, LeavesPerCluster: 4,
//		SpinesPerPlane: 2, RegionalSpines: 4, RSLinksPerSpine: 2,
//	})
//	dc.FailLink("dc-c0-t0-0", "dc-c0-t1-1") // or discover live state
//	report, _ := dc.Validate(dcvalidate.ValidateOptions{})
//	for _, v := range report.Violations() { fmt.Println(v) }
//
// and a SecGuru workflow:
//
//	policy, _ := dcvalidate.ParseIOSACL("edge", f)
//	report, _ := dcvalidate.CheckPolicy(policy, contracts)
//
// Everything — the CDCL SAT solver, the bit-vector layer, the EBGP
// simulation, the Clos topology generator, the monitoring pipeline — is
// implemented in this module with no dependencies beyond the standard
// library.
package dcvalidate

import (
	"io"

	"dcvalidate/internal/acl"
	"dcvalidate/internal/bgp"
	"dcvalidate/internal/conflint"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/emulator"
	"dcvalidate/internal/engine"
	"dcvalidate/internal/explore"
	"dcvalidate/internal/faulty"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/monitor"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/region"
	"dcvalidate/internal/secguru"
	"dcvalidate/internal/topology"
)

// Re-exported core types. The aliases make the full method sets of the
// implementation types part of the public API.
type (
	// TopologyParams sizes a generated Clos datacenter (§2.1).
	TopologyParams = topology.Params
	// Topology is a datacenter network with live link state.
	Topology = topology.Topology
	// DeviceID identifies a device within a topology.
	DeviceID = topology.DeviceID
	// Facts is the metadata snapshot intent derives from (§2.3).
	Facts = metadata.Facts
	// Contract is a local forwarding contract (§2.4).
	Contract = contracts.Contract
	// FIB is one device's forwarding table (§2.2).
	FIB = fib.Table
	// FIBSource produces per-device FIBs without a global snapshot.
	FIBSource = fib.Source
	// Report aggregates a validation run.
	Report = rcdc.Report
	// Violation is one failed local contract.
	Violation = rcdc.Violation
	// DeviceConfig carries route-map/platform knobs (§2.6.2 error classes).
	DeviceConfig = bgp.DeviceConfig
	// MetricsRegistry is the typed metric registry of internal/obs. It
	// serves Prometheus text via WritePrometheus and structured samples
	// via Snapshot; all recording is deterministic under an injected
	// virtual clock.
	MetricsRegistry = obs.Registry
	// MetricSample is one flattened (name, labels, value) exposition row.
	MetricSample = obs.Sample

	// ExploreOptions configures a failure-space exploration run: the
	// fault budget k, the fault universe (links, devices, sessions,
	// telemetry), symmetry pruning, ordered-trace analysis, and worker
	// parallelism.
	ExploreOptions = explore.Options
	// ExploreResult is the outcome of a failure-space exploration:
	// equivalence classes explored, scenarios pruned by symmetry,
	// violating classes with their orbit weights, and minimal
	// per-contract failure sets.
	ExploreResult = explore.Result
	// Fault is one injectable failure (link, device, BGP session, or
	// telemetry blackout) in a failure scenario.
	Fault = explore.Fault
	// MinimalSet is a delta-debugged minimal failure set that still
	// violates a specific contract.
	MinimalSet = explore.MinimalSet
	// FailureScenario is one explored equivalence-class representative
	// with its faults, orbit weight, and validation outcome.
	FailureScenario = explore.Scenario

	// ConflintReport is the deterministic result of statically linting a
	// configuration fleet (internal/conflint).
	ConflintReport = conflint.Report
	// ConflintFinding is one configuration lint diagnostic.
	ConflintFinding = conflint.Finding

	// Policy is an ordered packet-filter rule set (§3.1).
	Policy = acl.Policy
	// PolicyContract pairs a packet filter with a permit/deny expectation.
	PolicyContract = secguru.Contract
	// PolicyReport is the outcome of checking a policy against contracts.
	PolicyReport = secguru.Report

	// Pipeline is the §2.7 precheck workflow over an emulated network.
	Pipeline = emulator.Pipeline
	// MonitorInstance is one horizontally-scaled RCDC service instance.
	MonitorInstance = monitor.Instance
	// FaultySource wraps a FIBSource with deterministic seeded fault
	// injection: transient pull errors, dead devices, slow pulls, and
	// corrupt store documents.
	FaultySource = faulty.Source

	// RefactorPlan is the §3.3 phased change workflow for legacy ACLs:
	// prechecks on a test device, staged group rollout, postchecks,
	// rollback.
	RefactorPlan = secguru.Plan
	// PolicyChange is one step of a refactor plan.
	PolicyChange = secguru.Change
	// PolicyDevice models a production device holding an ACL, with the
	// rule-capacity limitation prechecks must account for.
	PolicyDevice = secguru.Device
	// NSGGuard is the §3.4 change-API validation hook protecting managed
	// database backups.
	NSGGuard = secguru.NSGGuard
	// ManagedInstance locates a managed database and its infrastructure
	// service for the NSG guard.
	ManagedInstance = secguru.ManagedInstance
	// FirewallTemplate generates and validates the §3.5 per-VM firewall.
	FirewallTemplate = secguru.FirewallTemplate
	// Packet is a concrete 5-tuple header.
	Packet = acl.Packet
	// PortRange is an inclusive port interval.
	PortRange = acl.PortRange
)

// Ports returns the inclusive port range [lo, hi].
func Ports(lo, hi uint16) PortRange { return PortRange{Lo: lo, Hi: hi} }

// NewPolicyDevice returns a device pre-configured with an ACL; capacity 0
// means unlimited rules.
func NewPolicyDevice(name string, group, capacity int, p *Policy) *PolicyDevice {
	return secguru.NewDevice(name, group, capacity, p)
}

// BackupContracts derives the §3.4 reachability contracts for a managed
// database instance.
func BackupContracts(mi ManagedInstance) []PolicyContract {
	return secguru.BackupContracts(mi)
}

// GateFirewallDeployment validates a generated firewall configuration
// against its template's contracts (§3.5).
func GateFirewallDeployment(cfg *Policy, t FirewallTemplate) error {
	return secguru.GateDeployment(cfg, t)
}

// Figure3Params returns the scaled-down topology of the paper's Figure 3,
// used by the running example of §2.4.
func Figure3Params() TopologyParams { return topology.Figure3Params() }

// Region models multiple datacenters sharing a regional network, with the
// §2.1 private-ASN stripping at the regional spine tier.
type Region = region.Region

// NewRegion builds a region from per-datacenter parameters; each must
// carry a distinct RegionIndex.
func NewRegion(params []TopologyParams) (*Region, error) {
	return region.New(params)
}

// Datacenter bundles a topology with its metadata facts and a converged
// FIB source — everything RCDC needs. It is a thin client of the
// orchestration engine (internal/engine): every method delegates, so the
// facade and the dcvalidated query server share one implementation, one
// set of serving caches, and one lock.
// Datacenter methods are safe for concurrent use; only direct writes to
// the public Topo and Config fields bypass the engine's synchronization.
type Datacenter struct {
	// Topo and Config are the live state the engine operates on — shared,
	// not copied. Reads are always safe; concurrent programs must route
	// mutations through the facade methods (FailLink, SetDeviceConfig, …)
	// rather than writing these directly.
	Topo   *Topology
	Config map[DeviceID]*DeviceConfig

	eng *engine.Engine
}

// NewDatacenter generates a synthetic datacenter from the parameters.
func NewDatacenter(p TopologyParams) (*Datacenter, error) {
	topo, err := topology.New(p)
	if err != nil {
		return nil, err
	}
	cfg := map[DeviceID]*DeviceConfig{}
	return &Datacenter{Topo: topo, Config: cfg, eng: engine.New(topo, cfg)}, nil
}

// Facts returns the metadata snapshot for the datacenter.
//
// The snapshot is cached forever by design, not merely as an
// optimization: facts model intent — the expected architecture — so link
// failures, session shutdowns, and restores MUST NOT alter them.
// Contracts derived from the facts are required to hold across live-state
// fluctuations (§2.4); regenerating facts from degraded link state would
// silently weaken the contracts to match the failure being validated.
// Only an intent edit (devices added or retired, prefixes moved) would
// invalidate the cache, and the facade does not support those on a built
// topology.
func (d *Datacenter) Facts() *Facts { return d.eng.Facts() }

// Metrics returns the datacenter's metric registry, creating it — and
// wiring the per-subsystem instrumentation bundles into every validator,
// solver, FIB source, and blast-radius computation the facade builds —
// on first call. Until then instrumentation is off and costs nothing.
// The registry is safe for concurrent use and its Prometheus exposition
// is byte-deterministic.
func (d *Datacenter) Metrics() *MetricsRegistry { return d.eng.Metrics() }

// Source returns the converged-state FIB source reflecting current link
// state and device configurations. Tables are synthesized lazily per
// device; no global snapshot is formed.
func (d *Datacenter) Source() FIBSource { return d.eng.NewSource() }

// SimulateBGP runs the full EBGP path-vector simulation and returns it as
// a FIB source (higher fidelity than Source; cost scales with the
// datacenter).
func (d *Datacenter) SimulateBGP() FIBSource { return d.eng.SimulateBGP() }

// FailLink marks the link between two named devices operationally down.
func (d *Datacenter) FailLink(a, b string) error {
	return d.eng.Apply(engine.Change{Kind: engine.FailLink, A: a, B: b})
}

// RestoreLink marks the link between two named devices operationally up
// again — the exact inverse of FailLink.
func (d *Datacenter) RestoreLink(a, b string) error {
	return d.eng.Apply(engine.Change{Kind: engine.RestoreLink, A: a, B: b})
}

// ShutSession administratively shuts the BGP session between two named
// devices.
func (d *Datacenter) ShutSession(a, b string) error {
	return d.eng.Apply(engine.Change{Kind: engine.ShutSession, A: a, B: b})
}

// RestoreSession brings the BGP session between two named devices back
// up — the exact inverse of ShutSession.
func (d *Datacenter) RestoreSession(a, b string) error {
	return d.eng.Apply(engine.Change{Kind: engine.RestoreSession, A: a, B: b})
}

// SetDeviceConfig installs (or, with nil, clears) a device's
// configuration and journals the change, so incremental revalidation
// knows the device's converged state may differ. Incremental consumers
// (ValidateDelta, the monitoring service's Incremental mode) require
// config edits to go through this method — writing to the Config map
// directly leaves no journal trace and can yield stale delta reports.
// With the lint gate enabled (EnableLintGate), the candidate fleet —
// current configs plus this change — is rendered and statically linted
// first; a change that introduces findings is rejected with a *LintError
// carrying the report, and nothing is applied or journaled.
func (d *Datacenter) SetDeviceConfig(device string, cfg *DeviceConfig) error {
	return d.eng.Apply(engine.Change{Kind: engine.SetConfig, Device: device, Config: cfg})
}

// EnableLintGate turns on lint-before-apply for SetDeviceConfig: every
// candidate configuration is rendered to device configs and checked by
// the full conflint analyzer suite before it takes effect, catching
// misconfigurations milliseconds before they would cost a re-convergence
// and a contract sweep. Off by default, because the simulator's whole
// purpose often *is* installing a misconfiguration to study (E3, E6).
func (d *Datacenter) EnableLintGate() { d.eng.EnableLintGate() }

// DisableLintGate turns lint-before-apply back off.
func (d *Datacenter) DisableLintGate() { d.eng.DisableLintGate() }

// LintConfigs renders the current fleet and runs the conflint analyzer
// suite over it, recording into the facade registry's conflint bundle
// when Metrics() has been called.
func (d *Datacenter) LintConfigs() (*ConflintReport, error) {
	return d.eng.Lint()
}

// LintError is returned by SetDeviceConfig when the lint gate rejects a
// change; Report carries the findings that would have been introduced.
type LintError = engine.LintError

// Contracts generates the full contract set for every device from the
// metadata facts (§2.4.1–2.4.3).
func (d *Datacenter) Contracts() []contracts.DeviceContracts {
	return d.eng.Contracts()
}

// Engine selects the verification algorithm of §2.5.
type Engine int

const (
	// EngineTrie is the specialized hash-trie algorithm (§2.5.2), RCDC's
	// fast path for the common workload.
	EngineTrie Engine = iota
	// EngineSMT is the bit-vector-logic engine (§2.5.1) discharged to the
	// built-in SAT solver.
	EngineSMT
	// EnginePEC is the packet-equivalence-class engine (internal/pec):
	// per-device atoms of the destination space with interned hop-set
	// IDs, contract checks as constant-time class operations, verdicts
	// byte-identical to EngineTrie (locked by the cross-engine scenario
	// matrix and a differential fuzzer). A reference engine only.
	EnginePEC
)

// engineKind lowers the facade enum to the engine's Kind vocabulary.
func (e Engine) engineKind() engine.Kind {
	switch e {
	case EngineSMT:
		return engine.KindSMT
	case EnginePEC:
		return engine.KindPEC
	}
	return engine.KindTrie
}

// ValidateOptions configures a validation run.
type ValidateOptions struct {
	Engine Engine
	// Exact extends the exact-ECMP-set requirement to specific contracts
	// (the §2.5.1 all-output-ports variant); the default uses the paper's
	// subset semantics with default-contract equality.
	Exact bool
	// Workers is the parallelism degree (0 = all CPUs, 1 = the paper's
	// single-CPU measurement setup).
	Workers int
	// Source overrides the FIB source (e.g. a corrupted source for fault
	// injection, or SimulateBGP output).
	Source FIBSource
}

// engineOptions lowers the public options to the engine's.
func (o ValidateOptions) engineOptions() engine.Options {
	return engine.Options{
		Engine:  o.Engine.engineKind(),
		Exact:   o.Exact,
		Workers: o.Workers,
		Source:  o.Source,
	}
}

// Validate runs local validation over every device of the datacenter.
// The report is stamped with the topology generation observed before
// pulling, so it can seed ValidateDelta.
func (d *Datacenter) Validate(opts ValidateOptions) (*Report, error) {
	return d.eng.Validate(opts.engineOptions())
}

// ValidateDelta revalidates only the blast radius of the topology changes
// journaled since prev was taken (prev.Generation), splicing the fresh
// per-device results into prev. The result is byte-for-byte identical to
// a from-scratch Validate of the current state — just cheaper, since
// devices outside the blast radius provably converge to the tables prev
// already recorded.
//
// It falls back to a full Validate when prev is nil, when the change
// journal no longer reaches back to prev.Generation, or when the blast
// radius is unbounded (a device-config change, or unbounded config knobs
// present anywhere). Either way the returned report is complete and
// stamped with the new generation, ready to be fed back in.
//
// Repeated calls amortize work through a persistent FIB source, whose
// synthesis state follows the change journal, and a memoized contract
// generator (unless opts.Source overrides the source). Config edits must
// go through SetDeviceConfig to be seen.
func (d *Datacenter) ValidateDelta(prev *Report, opts ValidateOptions) (*Report, error) {
	return d.eng.ValidateDelta(prev, opts.engineOptions())
}

// CheckGlobalIntent verifies all-pairs ToR reachability along maximally
// redundant shortest paths — the global intent the local contracts imply
// (Claim 1) — by walking each prefix's forwarding cone over the engine's
// cached synthesis, one device's runs at a time, never a global snapshot;
// empty result means the intent holds. Config edits must go through
// SetDeviceConfig to be seen.
func (d *Datacenter) CheckGlobalIntent() ([]rcdc.PairResult, error) {
	return d.eng.CheckGlobalIntent()
}

// ExploreFailures model-checks the datacenter's contracts against every
// combination of up to opts.K simultaneous failures. Scenarios related by
// a verified topology automorphism are validated once per equivalence
// class (the class representative carries a "represents N scenarios"
// weight), each class revalidates only the blast radius of its faults
// against a healthy baseline, and every violating class is shrunk to
// minimal per-contract failure sets via delta debugging. Exploration runs
// on a clone: the datacenter's live state is never modified.
//
// With opts.Metrics unset, the run records into the facade registry's
// explorer bundle when Metrics() has been called.
func (d *Datacenter) ExploreFailures(opts ExploreOptions) (*ExploreResult, error) {
	return d.eng.ExploreFailures(opts)
}

// NewPipeline returns the §2.7 precheck pipeline treating this datacenter
// as production.
func (d *Datacenter) NewPipeline() *Pipeline { return d.eng.NewPipeline() }

// NewMonitor returns an RCDC live-monitoring instance watching this
// datacenter (Figure 5).
func (d *Datacenter) NewMonitor(name string) *MonitorInstance {
	return d.eng.NewMonitor(name)
}

// WriteFIB renders a device's routing table in the Figure 2 text format.
func (d *Datacenter) WriteFIB(w io.Writer, device string) error {
	return d.eng.WriteFIB(w, device)
}

// Serving layer: the query API backed by the engine's generation-keyed
// caches. Steady-state repeat queries are O(1) map hits (visible in the
// dcv_serve_cache_hits_total counter once Metrics() has been called);
// after a journaled change only the blast radius revalidates.

// Re-exported query types.
type (
	// DeviceAnswer answers "is device X conformant?".
	DeviceAnswer = engine.DeviceAnswer
	// ReachAnswer answers "can traffic from src reach dst?".
	ReachAnswer = engine.ReachAnswer
	// ReachCounterexample is the concrete packet trajectory demonstrating
	// a failed reachability query.
	ReachCounterexample = engine.Counterexample
	// FleetSummary is the aggregate health of the datacenter.
	FleetSummary = engine.Summary
)

// QueryDevice answers "is device name conformant?" from the serving
// cache; on a hit this is an O(1) lookup with zero revalidation work.
func (d *Datacenter) QueryDevice(name string) (*DeviceAnswer, error) {
	return d.eng.QueryDevice(name)
}

// QueryReach answers "can traffic from src reach dst?" where dst is a
// device name or a hosted CIDR prefix; failing answers carry a
// counterexample packet.
func (d *Datacenter) QueryReach(src, dst string) (*ReachAnswer, error) {
	return d.eng.QueryReach(src, dst)
}

// Summary reports aggregate fleet health from the serving cache.
func (d *Datacenter) Summary() (*FleetSummary, error) { return d.eng.Summary() }

// QueryViolations returns every current violation (deep-copied; callers
// may mutate freely) plus the topology generation it reflects.
func (d *Datacenter) QueryViolations() ([]Violation, uint64, error) {
	return d.eng.QueryViolations()
}

// SetDefaultEngine makes every run that doesn't name an engine in its
// ValidateOptions — including the serving path's cache refreshes — use
// the given one.
func (d *Datacenter) SetDefaultEngine(e Engine) { d.eng.SetDefaultEngine(e.engineKind()) }

// SecGuru facade.

// ParseIOSACL parses a Cisco IOS-style access-control list (Figure 8).
func ParseIOSACL(name string, r io.Reader) (*Policy, error) {
	return acl.ParseIOS(name, r)
}

// ParseNSG parses a network security group from JSON (Figure 9).
func ParseNSG(name string, r io.Reader) (*Policy, error) {
	return acl.ParseNSG(name, r)
}

// ParsePolicyContracts reads a JSON contract suite.
func ParsePolicyContracts(r io.Reader) ([]PolicyContract, error) {
	return secguru.ParseContracts(r)
}

// CheckPolicy validates a connectivity policy against contracts with the
// bit-vector engine (§3.2), identifying the violating rule and a witness
// packet for every failed contract.
func CheckPolicy(p *Policy, cs []PolicyContract) (*PolicyReport, error) {
	return secguru.Check(p, cs)
}

// PoliciesEquivalent reports whether two policies admit exactly the same
// traffic, with a distinguishing packet when they do not.
func PoliciesEquivalent(a, b *Policy) (bool, acl.Packet, error) {
	return secguru.Equivalent(a, b)
}

// CheckPolicyPath validates end-to-end contracts against the conjunction
// of the policies along a forwarding path (edge ACL, hypervisor firewall,
// destination NSG, ...), identifying the blocking hop — the cross-device
// extension §3.6 describes.
func CheckPolicyPath(path []*Policy, cs []PolicyContract) (*secguru.PathReport, error) {
	return secguru.CheckPath(path, cs)
}

// ParsePrefix parses IPv4 CIDR notation.
func ParsePrefix(s string) (ipnet.Prefix, error) { return ipnet.ParsePrefix(s) }
