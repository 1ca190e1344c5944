// Package topology models the hierarchical Clos datacenter network of §2.1
// and generates synthetic instances of it, in the spirit of the cloud
// topology generator the paper references ([29], Lopes).
//
// A datacenter has four tiers. Top-of-rack (T0/ToR) switches host server
// VLAN prefixes. ToRs in a cluster connect to the cluster's leaf (T1)
// switches. Leaves connect upward to spine (T2) switches arranged in planes:
// leaf i of every cluster connects to all spines of plane i. Spines connect
// to the regional spine (RS) tier, which is the boundary to the Azure
// regional network.
//
// ASN allocation follows §2.1: one ASN for all spines of the datacenter,
// one ASN per cluster shared by its leaves, and per-ToR ASNs that are unique
// within a cluster but reused across clusters.
//
// Links carry both a physical state (cabling, optics) and a BGP session
// admin state; the distinction matters for the §2.6.2 error taxonomy
// (hardware failure vs. operation drift).
package topology

import (
	"fmt"
	"sort"

	"dcvalidate/internal/ipnet"
)

// Role is the tier of a device in the Clos hierarchy.
type Role uint8

const (
	RoleToR Role = iota
	RoleLeaf
	RoleSpine
	RoleRegionalSpine
)

func (r Role) String() string {
	switch r {
	case RoleToR:
		return "tor"
	case RoleLeaf:
		return "leaf"
	case RoleSpine:
		return "spine"
	case RoleRegionalSpine:
		return "rspine"
	}
	return "unknown"
}

// DeviceID indexes a device within a Topology.
type DeviceID int32

// None is the invalid device ID.
const None DeviceID = -1

// Device is a network switch/router.
type Device struct {
	ID      DeviceID
	Name    string
	Role    Role
	Cluster int // cluster index for ToR/leaf; -1 for spine/RS
	Index   int // index within its tier scope (per cluster, plane, etc.)
	Plane   int // spine plane for leaves and spines; -1 otherwise
	ASN     uint32

	// HostedPrefixes are the VLAN prefixes announced by a ToR (§2.1).
	HostedPrefixes []ipnet.Prefix
}

// LinkID indexes a link within a Topology.
type LinkID int32

// Link is a point-to-point connection carrying one EBGP session.
type Link struct {
	ID   LinkID
	A, B DeviceID
	// Up is the physical/operational state (false models optical faults).
	Up bool
	// SessionUp is the BGP session admin state (false models sessions
	// administratively shut, e.g. to mitigate lossy links).
	SessionUp bool
	// AddrA and AddrB are the /31 interface addresses of the two ends.
	AddrA, AddrB ipnet.Addr
}

// Live reports whether the link can carry routes: physically up with the
// BGP session not administratively shut.
func (l *Link) Live() bool { return l.Up && l.SessionUp }

// Peer returns the device on the other end of the link from d, and the
// interface address of that far end.
func (l *Link) Peer(d DeviceID) (DeviceID, ipnet.Addr) {
	if l.A == d {
		return l.B, l.AddrB
	}
	return l.A, l.AddrA
}

// Params configures a generated datacenter.
type Params struct {
	Name             string
	Clusters         int
	ToRsPerCluster   int
	LeavesPerCluster int // also the number of spine planes
	SpinesPerPlane   int
	RegionalSpines   int
	// RSLinksPerSpine is how many regional spine devices each spine
	// connects to. Regional spines are partitioned into
	// RegionalSpines/RSLinksPerSpine groups and spine i connects to group
	// i mod groups (matching Figure 3, where D1 connects to R1 and R3).
	RSLinksPerSpine int
	// PrefixesPerToR is the number of VLAN /24 prefixes hosted per ToR.
	PrefixesPerToR int
	// RegionIndex distinguishes datacenters sharing a regional network
	// (multi-datacenter simulations): it offsets the regional spine ASN
	// (each datacenter's RS tier needs a distinct ASN for regional
	// propagation) and the VLAN prefix block (4096 /24s per datacenter),
	// while spine/leaf/ToR ASNs deliberately stay identical across
	// datacenters — the collision the §2.1 private-ASN stripping exists
	// to neutralize.
	RegionIndex int
}

// Figure3Params returns the scaled-down topology of Figure 3: two clusters
// (A, B) with 2 ToRs and 4 leaves each, 4 spine devices (D1–D4), and 4
// regional spines (R1–R4) with each spine connected to 2 of them.
func Figure3Params() Params {
	return Params{
		Name:             "fig3",
		Clusters:         2,
		ToRsPerCluster:   2,
		LeavesPerCluster: 4,
		SpinesPerPlane:   1,
		RegionalSpines:   4,
		RSLinksPerSpine:  2,
		PrefixesPerToR:   1,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	switch {
	case p.Clusters < 1 || p.ToRsPerCluster < 1 || p.LeavesPerCluster < 1 ||
		p.SpinesPerPlane < 1 || p.RegionalSpines < 1:
		return fmt.Errorf("topology: all tier counts must be >= 1: %+v", p)
	case p.RSLinksPerSpine < 1 || p.RSLinksPerSpine > p.RegionalSpines:
		return fmt.Errorf("topology: RSLinksPerSpine %d out of range", p.RSLinksPerSpine)
	case p.RegionalSpines%p.RSLinksPerSpine != 0:
		return fmt.Errorf("topology: RegionalSpines %d not divisible by RSLinksPerSpine %d",
			p.RegionalSpines, p.RSLinksPerSpine)
	case p.RegionIndex < 0 || p.RegionIndex > 15:
		return fmt.Errorf("topology: RegionIndex %d out of range [0,15]", p.RegionIndex)
	case p.RegionIndex == 0 && p.Clusters*p.ToRsPerCluster*max(1, p.PrefixesPerToR) > 1<<16:
		return fmt.Errorf("topology: prefix space exhausted (%d ToR prefixes)",
			p.Clusters*p.ToRsPerCluster*p.PrefixesPerToR)
	case p.RegionIndex > 0 && p.Clusters*p.ToRsPerCluster*max(1, p.PrefixesPerToR) > 1<<12:
		return fmt.Errorf("topology: prefix block exhausted (%d ToR prefixes, 4096 per datacenter in a region)",
			p.Clusters*p.ToRsPerCluster*p.PrefixesPerToR)
	}
	return nil
}

// NumDevices returns the total device count the parameters produce.
func (p Params) NumDevices() int {
	return p.Clusters*(p.ToRsPerCluster+p.LeavesPerCluster) +
		p.LeavesPerCluster*p.SpinesPerPlane + p.RegionalSpines
}

// ASN allocation bases. Values are 4-byte private ASNs (RFC 6996) so
// arbitrarily large datacenters never collide.
const (
	asnRegionalSpine = 4200000000
	asnSpine         = 4200000100
	asnLeafBase      = 4200001000 // + cluster index
	asnToRBase       = 4210000000 // + ToR index within cluster (reused across clusters)
)

// ChangeKind classifies one recorded topology mutation for the change
// journal consumed by incremental revalidation.
type ChangeKind uint8

const (
	// ChangeLinkDown / ChangeLinkUp record physical link state flips.
	ChangeLinkDown ChangeKind = iota
	ChangeLinkUp
	// ChangeSessionDown / ChangeSessionUp record BGP session admin flips.
	ChangeSessionDown
	ChangeSessionUp
	// ChangeDevice records an out-of-band per-device change — device
	// configuration edits, FIB reloads, remediation — whose forwarding
	// impact the journal cannot localize to a link.
	ChangeDevice
)

func (k ChangeKind) String() string {
	switch k {
	case ChangeLinkDown:
		return "link-down"
	case ChangeLinkUp:
		return "link-up"
	case ChangeSessionDown:
		return "session-down"
	case ChangeSessionUp:
		return "session-up"
	case ChangeDevice:
		return "device"
	}
	return "unknown"
}

// Change is one journaled topology mutation.
type Change struct {
	Kind ChangeKind
	// Link is the affected link for link/session changes; -1 for
	// ChangeDevice.
	Link LinkID
	// Device is the affected device for ChangeDevice; None otherwise.
	Device DeviceID
	// Gen is the topology generation the change produced.
	Gen uint64
}

// maxJournal bounds the change journal: once exceeded, the oldest entries
// are dropped and ChangesSince answers ok=false for generations before the
// truncation point, forcing consumers back to a full sweep. The bound keeps
// journal memory O(1) in the age of the topology.
const maxJournal = 4096

// Topology is a generated datacenter network.
type Topology struct {
	Params  Params
	Devices []Device
	Links   []Link

	linksOf [][]LinkID // device -> incident links
	byName  map[string]DeviceID
	linkIdx map[uint64]LinkID // (min,max) device pair -> link

	// tier indices
	tors    []DeviceID // cluster-major order
	leaves  []DeviceID
	spines  []DeviceID
	rspines []DeviceID

	// Change journal: gen counts mutations since construction, journal
	// holds the most recent maxJournal of them, journalFloor is the newest
	// generation that has been truncated away (0 = journal complete).
	gen          uint64
	journal      []Change
	journalFloor uint64
}

// New generates a datacenter network from the parameters.
func New(p Params) (*Topology, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.PrefixesPerToR == 0 {
		p.PrefixesPerToR = 1
	}
	if p.Name == "" {
		p.Name = "dc"
	}
	nDevices := p.NumDevices()
	t := &Topology{Params: p, byName: make(map[string]DeviceID, nDevices)}
	t.Devices = make([]Device, 0, nDevices)

	addDevice := func(name string, role Role, cluster, index, plane int, asn uint32) DeviceID {
		id := DeviceID(len(t.Devices))
		t.Devices = append(t.Devices, Device{
			ID: id, Name: name, Role: role, Cluster: cluster, Index: index,
			Plane: plane, ASN: asn,
		})
		t.byName[name] = id
		return id
	}

	t.tors = make([]DeviceID, 0, p.Clusters*p.ToRsPerCluster)
	t.leaves = make([]DeviceID, 0, p.Clusters*p.LeavesPerCluster)
	t.spines = make([]DeviceID, 0, p.LeavesPerCluster*p.SpinesPerPlane)
	t.rspines = make([]DeviceID, 0, p.RegionalSpines)

	// ToRs and leaves, cluster by cluster. The hosted prefixes are carved
	// from one array, each ToR's slice capped at its own.
	prefixSeq := p.RegionIndex << 12
	hosted := make([]ipnet.Prefix, p.Clusters*p.ToRsPerCluster*p.PrefixesPerToR)
	for c := 0; c < p.Clusters; c++ {
		for i := 0; i < p.ToRsPerCluster; i++ {
			id := addDevice(fmt.Sprintf("%s-c%d-t0-%d", p.Name, c, i),
				RoleToR, c, i, -1, asnToRBase+uint32(i))
			d := &t.Devices[id]
			d.HostedPrefixes, hosted = hosted[:p.PrefixesPerToR:p.PrefixesPerToR], hosted[p.PrefixesPerToR:]
			for k := range d.HostedPrefixes {
				d.HostedPrefixes[k] = ipnet.PrefixFrom(ipnet.Addr(0x0a000000|uint32(prefixSeq)<<8), 24)
				prefixSeq++
			}
			t.tors = append(t.tors, id)
		}
		for i := 0; i < p.LeavesPerCluster; i++ {
			id := addDevice(fmt.Sprintf("%s-c%d-t1-%d", p.Name, c, i),
				RoleLeaf, c, i, i, asnLeafBase+uint32(c))
			t.leaves = append(t.leaves, id)
		}
	}
	for pl := 0; pl < p.LeavesPerCluster; pl++ {
		for i := 0; i < p.SpinesPerPlane; i++ {
			id := addDevice(fmt.Sprintf("%s-t2-p%d-%d", p.Name, pl, i),
				RoleSpine, -1, i, pl, asnSpine)
			t.spines = append(t.spines, id)
		}
	}
	for i := 0; i < p.RegionalSpines; i++ {
		id := addDevice(fmt.Sprintf("%s-rs-%d", p.Name, i),
			RoleRegionalSpine, -1, i, -1, asnRegionalSpine+uint32(p.RegionIndex))
		t.rspines = append(t.rspines, id)
	}

	groups := p.RegionalSpines / p.RSLinksPerSpine
	nLinks := p.Clusters*p.LeavesPerCluster*(p.ToRsPerCluster+p.SpinesPerPlane) + len(t.spines)*p.RSLinksPerSpine
	t.Links = make([]Link, 0, nLinks)
	t.linkIdx = make(map[uint64]LinkID, nLinks)
	addLink := func(a, b DeviceID) {
		id := LinkID(len(t.Links))
		base := ipnet.Addr(0x64400000 + 2*uint32(id)) // 100.64.0.0/10 pool
		t.Links = append(t.Links, Link{
			ID: id, A: a, B: b, Up: true, SessionUp: true,
			AddrA: base, AddrB: base + 1,
		})
		t.linkIdx[pairKey(a, b)] = id
	}

	// ToR–leaf: full bipartite within each cluster.
	for c := 0; c < p.Clusters; c++ {
		for i := 0; i < p.ToRsPerCluster; i++ {
			tor := t.tors[c*p.ToRsPerCluster+i]
			for j := 0; j < p.LeavesPerCluster; j++ {
				addLink(tor, t.leaves[c*p.LeavesPerCluster+j])
			}
		}
	}
	// Leaf–spine: leaf of plane j connects to all spines of plane j.
	for c := 0; c < p.Clusters; c++ {
		for j := 0; j < p.LeavesPerCluster; j++ {
			leaf := t.leaves[c*p.LeavesPerCluster+j]
			for i := 0; i < p.SpinesPerPlane; i++ {
				addLink(leaf, t.spines[j*p.SpinesPerPlane+i])
			}
		}
	}
	// Spine–regional spine: RS devices form RSLinksPerSpine groups; spine k
	// (global index) connects to RS {g, g+groups, g+2*groups, ...} where
	// g = k mod groups.
	for k, sp := range t.spines {
		g := k % groups
		for r := g; r < p.RegionalSpines; r += groups {
			addLink(sp, t.rspines[r])
		}
	}

	// Incident links, in link order, carved from one array: each device's
	// slice is capped at its degree, so a later append copies it out.
	degree := make([]int, len(t.Devices))
	for i := range t.Links {
		degree[t.Links[i].A]++
		degree[t.Links[i].B]++
	}
	flat := make([]LinkID, 2*len(t.Links))
	t.linksOf = make([][]LinkID, len(t.Devices))
	for d, n := range degree {
		t.linksOf[d], flat = flat[:0:n], flat[n:]
	}
	for i := range t.Links {
		l := &t.Links[i]
		t.linksOf[l.A] = append(t.linksOf[l.A], l.ID)
		t.linksOf[l.B] = append(t.linksOf[l.B], l.ID)
	}
	return t, nil
}

// MustNew is New that panics on error; for tests and examples.
func MustNew(p Params) *Topology {
	t, err := New(p)
	if err != nil {
		panic(err)
	}
	return t
}

// Device returns the device with the given ID.
func (t *Topology) Device(id DeviceID) *Device { return &t.Devices[id] }

// ByName returns the device with the given name.
func (t *Topology) ByName(name string) (*Device, bool) {
	id, ok := t.byName[name]
	if !ok {
		return nil, false
	}
	return &t.Devices[id], true
}

// ToRs returns all top-of-rack devices in cluster-major order.
func (t *Topology) ToRs() []DeviceID { return t.tors }

// Leaves returns all leaf devices in cluster-major order.
func (t *Topology) Leaves() []DeviceID { return t.leaves }

// Spines returns all spine devices in plane-major order.
func (t *Topology) Spines() []DeviceID { return t.spines }

// RegionalSpines returns the regional spine devices.
func (t *Topology) RegionalSpines() []DeviceID { return t.rspines }

// ClusterToRs returns the ToRs of one cluster.
func (t *Topology) ClusterToRs(c int) []DeviceID {
	n := t.Params.ToRsPerCluster
	return t.tors[c*n : (c+1)*n]
}

// ClusterLeaves returns the leaves of one cluster.
func (t *Topology) ClusterLeaves(c int) []DeviceID {
	n := t.Params.LeavesPerCluster
	return t.leaves[c*n : (c+1)*n]
}

// LinksOf returns the IDs of all links incident to the device.
func (t *Topology) LinksOf(d DeviceID) []LinkID { return t.linksOf[d] }

// Link returns the link with the given ID.
func (t *Topology) Link(id LinkID) *Link { return &t.Links[id] }

// LinkBetween returns the link connecting a and b, if any, in O(1).
func (t *Topology) LinkBetween(a, b DeviceID) (*Link, bool) {
	id, ok := t.linkIdx[pairKey(a, b)]
	if !ok {
		return nil, false
	}
	return &t.Links[id], true
}

func pairKey(a, b DeviceID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// Neighbors returns the devices adjacent to d (regardless of link state).
func (t *Topology) Neighbors(d DeviceID) []DeviceID {
	out := make([]DeviceID, 0, len(t.linksOf[d]))
	for _, lid := range t.linksOf[d] {
		p, _ := t.Links[lid].Peer(d)
		out = append(out, p)
	}
	return out
}

// LiveNeighbors returns the devices adjacent to d over live links.
func (t *Topology) LiveNeighbors(d DeviceID) []DeviceID {
	out := make([]DeviceID, 0, len(t.linksOf[d]))
	for _, lid := range t.linksOf[d] {
		l := &t.Links[lid]
		if !l.Live() {
			continue
		}
		p, _ := l.Peer(d)
		out = append(out, p)
	}
	return out
}

// Generation returns the monotonic mutation counter: it advances on every
// journaled state change (link/session flips, device-level changes). A
// freshly constructed topology is at generation 0.
func (t *Topology) Generation() uint64 { return t.gen }

// ChangesSince returns the journal entries recorded after generation gen,
// oldest first. ok is false when the journal has been truncated past gen
// (too many changes since the caller last looked): the caller no longer
// knows what changed and must fall back to a full revalidation.
//
// Direct writes to Link fields bypass the journal; use the SetLinkUp /
// SetSessionUp / NoteDeviceChanged mutators (or FailLink / ShutSession /
// RestoreAll) for any change incremental consumers must observe.
func (t *Topology) ChangesSince(gen uint64) (changes []Change, ok bool) {
	if gen < t.journalFloor {
		return nil, false
	}
	if gen >= t.gen {
		return nil, true
	}
	// Journal entries are generation-ordered; find the first entry > gen.
	i := sort.Search(len(t.journal), func(i int) bool { return t.journal[i].Gen > gen })
	return t.journal[i:], true
}

// record journals one mutation and bumps the generation.
func (t *Topology) record(c Change) {
	t.gen++
	c.Gen = t.gen
	t.journal = append(t.journal, c)
	if len(t.journal) > maxJournal {
		drop := len(t.journal) - maxJournal
		t.journalFloor = t.journal[drop-1].Gen
		t.journal = append(t.journal[:0:0], t.journal[drop:]...)
	}
}

// SetLinkUp sets the physical state of a link, journaling the transition.
// No-op (and no journal entry) when the link is already in that state.
func (t *Topology) SetLinkUp(id LinkID, up bool) {
	l := &t.Links[id]
	if l.Up == up {
		return
	}
	l.Up = up
	kind := ChangeLinkDown
	if up {
		kind = ChangeLinkUp
	}
	t.record(Change{Kind: kind, Link: id, Device: None})
}

// SetSessionUp sets the BGP session admin state of a link, journaling the
// transition. No-op when the link is already in that state.
func (t *Topology) SetSessionUp(id LinkID, up bool) {
	l := &t.Links[id]
	if l.SessionUp == up {
		return
	}
	l.SessionUp = up
	kind := ChangeSessionDown
	if up {
		kind = ChangeSessionUp
	}
	t.record(Change{Kind: kind, Link: id, Device: None})
}

// NoteDeviceChanged journals an out-of-band change to one device (a
// configuration edit, a FIB reload) that incremental consumers cannot
// bound to a link. Blast-radius analysis treats it conservatively.
func (t *Topology) NoteDeviceChanged(d DeviceID) {
	t.record(Change{Kind: ChangeDevice, Link: -1, Device: d})
}

// FailLink marks the link between a and b physically down (optical fault).
// It reports whether such a link exists.
func (t *Topology) FailLink(a, b DeviceID) bool {
	l, ok := t.LinkBetween(a, b)
	if ok {
		t.SetLinkUp(l.ID, false)
	}
	return ok
}

// RestoreLink marks the link between a and b physically up again — the
// exact inverse of FailLink. It reports whether such a link exists.
func (t *Topology) RestoreLink(a, b DeviceID) bool {
	l, ok := t.LinkBetween(a, b)
	if ok {
		t.SetLinkUp(l.ID, true)
	}
	return ok
}

// FailDevice models a whole-device loss (power, supervisor crash): every
// physically-up link incident to d is taken down, each flip journaled. It
// returns the links it actually flipped, in ascending ID order, so callers
// exploring failure scenarios can restore the exact prior state with
// RestoreLinks even when the surrounding network was already degraded.
func (t *Topology) FailDevice(d DeviceID) []LinkID {
	var flipped []LinkID
	for _, lid := range t.linksOf[d] {
		if t.Links[lid].Up {
			t.SetLinkUp(lid, false)
			flipped = append(flipped, lid)
		}
	}
	return flipped
}

// RestoreLinks brings the given links physically up, journaling each flip —
// the exact inverse of a FailDevice return value.
func (t *Topology) RestoreLinks(ids []LinkID) {
	for _, lid := range ids {
		t.SetLinkUp(lid, true)
	}
}

// RestoreDevice brings every link incident to d physically up — the
// convenience inverse of FailDevice from a fully healthy base state. When
// neighboring failures overlapped the device, use the FailDevice return
// value with RestoreLinks instead to avoid resurrecting unrelated faults.
func (t *Topology) RestoreDevice(d DeviceID) {
	t.RestoreLinks(t.linksOf[d])
}

// ShutSession administratively shuts the BGP session between a and b
// (operation drift). It reports whether such a link exists.
func (t *Topology) ShutSession(a, b DeviceID) bool {
	l, ok := t.LinkBetween(a, b)
	if ok {
		t.SetSessionUp(l.ID, false)
	}
	return ok
}

// Clone returns an independent copy of the topology, including current
// link state. The network emulator uses clones to try out changes without
// touching production (§2.7). The clone starts with a fresh journal at
// generation 0: its history begins at the cloned state.
func (t *Topology) Clone() *Topology {
	cp := MustNew(t.Params)
	for i := range t.Links {
		cp.Links[i].Up = t.Links[i].Up
		cp.Links[i].SessionUp = t.Links[i].SessionUp
	}
	return cp
}

// RestoreAll returns every link to the healthy state, journaling each
// individual flip so incremental consumers see a bounded change set.
func (t *Topology) RestoreAll() {
	for i := range t.Links {
		t.SetLinkUp(LinkID(i), true)
		t.SetSessionUp(LinkID(i), true)
	}
}

// HostedPrefixes returns every (prefix, hosting ToR) pair in the
// datacenter, in prefix order — the address-locality facts of §2.3.
func (t *Topology) HostedPrefixes() []HostedPrefix {
	var out []HostedPrefix
	for _, id := range t.tors {
		for _, p := range t.Devices[id].HostedPrefixes {
			out = append(out, HostedPrefix{Prefix: p, ToR: id, Cluster: t.Devices[id].Cluster})
		}
	}
	return out
}

// HostedPrefix records where a VLAN prefix lives.
type HostedPrefix struct {
	Prefix  ipnet.Prefix
	ToR     DeviceID
	Cluster int
}

// AddrOf returns the interface address of device d on link l.
func (t *Topology) AddrOf(d DeviceID, l *Link) ipnet.Addr {
	if l.A == d {
		return l.AddrA
	}
	return l.AddrB
}

// DeviceByAddr finds the device owning an interface address.
func (t *Topology) DeviceByAddr(a ipnet.Addr) (DeviceID, bool) {
	// Interface addresses are allocated densely: link = (a - base) / 2.
	off := uint32(a) - 0x64400000
	li := LinkID(off / 2)
	if int(li) >= len(t.Links) {
		return None, false
	}
	l := &t.Links[li]
	if l.AddrA == a {
		return l.A, true
	}
	if l.AddrB == a {
		return l.B, true
	}
	return None, false
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
