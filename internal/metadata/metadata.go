// Package metadata models the Azure metadata service of §2.3: the source of
// truth for network intent. It records facts about topology and address
// locality — which IP prefixes are hosted in which top-of-rack switch, who
// each device's neighbors are and at which address each BGP session
// terminates, and the ASN each router's sessions carry. The device contract
// generator derives intent from these facts alone; it never looks at live
// network state, because contracts are based on the expected topology
// (§2.4), not the current link status.
package metadata

import (
	"encoding/json"
	"fmt"
	"io"

	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/topology"
)

// Neighbor is one expected adjacency of a device: the peer and the
// address of its far-end interface, where the BGP session riding the link
// terminates. The peer's name, role, cluster and ASN — the rest of the
// session's configuration — are read through Facts.Device(nb.Device).
type Neighbor struct {
	Device   topology.DeviceID `json:"device"`
	PeerAddr ipnet.Addr        `json:"peerAddr"`
}

// DeviceFacts is everything the metadata service knows about one device.
type DeviceFacts struct {
	ID      topology.DeviceID `json:"id"`
	Name    string            `json:"name"`
	Role    topology.Role     `json:"role"`
	Cluster int               `json:"cluster"`
	ASN     uint32            `json:"asn"`

	// HostedPrefixes are the VLAN prefixes this device announces (ToR only).
	HostedPrefixes []ipnet.Prefix `json:"hostedPrefixes,omitempty"`

	// Uplinks and Downlinks are the expected adjacencies by direction in
	// the Clos hierarchy (uplink = toward the regional spine).
	Uplinks   []Neighbor `json:"uplinks,omitempty"`
	Downlinks []Neighbor `json:"downlinks,omitempty"`
}

// PrefixFacts locates one hosted prefix.
type PrefixFacts struct {
	Prefix  ipnet.Prefix      `json:"prefix"`
	ToR     topology.DeviceID `json:"tor"`
	Cluster int               `json:"cluster"`
}

// Facts is a full metadata snapshot for one datacenter.
type Facts struct {
	Datacenter string        `json:"datacenter"`
	Devices    []DeviceFacts `json:"devices"`
	Prefixes   []PrefixFacts `json:"prefixes"`

	byName map[string]int
	// gen counts intent changes (see NoteIntentChange). Unlike the
	// topology generation, it does NOT advance on link state flips: facts
	// model the expected architecture, so contracts derived from them stay
	// valid across failures.
	gen uint64
}

// Generation returns the intent-change counter. Contract memoization keys
// on it: link-state changes leave it untouched, edits to the facts
// themselves must advance it via NoteIntentChange.
func (f *Facts) Generation() uint64 { return f.gen }

// NoteIntentChange records an edit to the facts (devices added or retired,
// prefixes moved), invalidating memoized contracts derived from them.
func (f *Facts) NoteIntentChange() { f.gen++ }

// FromTopology extracts the metadata facts from a datacenter topology.
// Link state is deliberately ignored: the metadata service describes the
// architecture, and contracts must hold across state fluctuations.
func FromTopology(t *topology.Topology) *Facts {
	hps := t.HostedPrefixes()
	f := &Facts{
		Datacenter: t.Params.Name,
		Devices:    make([]DeviceFacts, len(t.Devices)),
		Prefixes:   make([]PrefixFacts, len(hps)),
	}
	for i, hp := range hps {
		f.Prefixes[i] = PrefixFacts{Prefix: hp.Prefix, ToR: hp.ToR, Cluster: hp.Cluster}
	}
	// Every device's neighbors share one array, sized exactly (a link is
	// two adjacencies), and so do the ToRs' hosted prefixes. Each slice is
	// capped, so appending to one copies it out.
	nbs := make([]Neighbor, 0, 2*len(t.Links))
	hosted := make([]ipnet.Prefix, 0, len(hps))
	var down []Neighbor // one device's downlinks, until its uplinks are in
	for i := range t.Devices {
		d := &t.Devices[i]
		up := len(nbs)
		down = down[:0]
		for _, lid := range t.LinksOf(d.ID) {
			// A link's A end is its lower-tier end: B is closer to the RS.
			if l := t.Link(lid); l.A == d.ID {
				nbs = append(nbs, Neighbor{Device: l.B, PeerAddr: l.AddrB})
			} else {
				down = append(down, Neighbor{Device: l.A, PeerAddr: l.AddrA})
			}
		}
		uplinks := carve(nbs, up)
		at := len(nbs)
		nbs = append(nbs, down...)
		lo := len(hosted)
		hosted = append(hosted, d.HostedPrefixes...)
		f.Devices[i] = DeviceFacts{
			ID: d.ID, Name: d.Name, Role: d.Role, Cluster: d.Cluster, ASN: d.ASN,
			HostedPrefixes: carve(hosted, lo),
			Uplinks:        uplinks,
			Downlinks:      carve(nbs, at),
		}
	}
	return f
}

// carve returns s[lo:] capped at its length, or nil when it is empty.
func carve[E any](s []E, lo int) []E {
	if len(s) == lo {
		return nil
	}
	return s[lo:len(s):len(s)]
}

// Device returns the facts for a device ID.
func (f *Facts) Device(id topology.DeviceID) *DeviceFacts {
	return &f.Devices[id]
}

// ByName returns the facts for a device name.
func (f *Facts) ByName(name string) (*DeviceFacts, bool) {
	if f.byName == nil {
		f.byName = make(map[string]int, len(f.Devices))
		for i := range f.Devices {
			f.byName[f.Devices[i].Name] = i
		}
	}
	i, ok := f.byName[name]
	if !ok {
		return nil, false
	}
	return &f.Devices[i], true
}

// PrefixesInCluster returns the prefixes hosted by ToRs of the cluster.
func (f *Facts) PrefixesInCluster(cluster int) []PrefixFacts {
	var out []PrefixFacts
	for _, p := range f.Prefixes {
		if p.Cluster == cluster {
			out = append(out, p)
		}
	}
	return out
}

// WriteJSON serializes the snapshot.
func (f *Facts) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadJSON deserializes a snapshot written by WriteJSON.
func ReadJSON(r io.Reader) (*Facts, error) {
	var f Facts
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("metadata: decoding snapshot: %w", err)
	}
	return &f, nil
}
