// Package metadata models the Azure metadata service of §2.3: the source of
// truth for network intent. It records facts about topology and address
// locality — which IP prefixes are hosted in which top-of-rack switch, who
// each device's neighbors are, and how BGP sessions are configured between
// routers. The device contract generator derives intent from these facts
// alone; it never looks at live network state, because contracts are based
// on the expected topology (§2.4), not the current link status.
package metadata

import (
	"encoding/json"
	"fmt"
	"io"

	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/topology"
)

// Neighbor is one expected adjacency of a device, with the configuration of
// the BGP session riding it.
type Neighbor struct {
	Device   topology.DeviceID `json:"device"`
	Name     string            `json:"name"`
	Role     topology.Role     `json:"role"`
	Cluster  int               `json:"cluster"`
	ASN      uint32            `json:"asn"`
	PeerAddr ipnet.Addr        `json:"peerAddr"` // far-end interface address
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
	f := &Facts{Datacenter: t.Params.Name, Devices: make([]DeviceFacts, 0, len(t.Devices))}
	// Every device's neighbors share one array, sized exactly: a link is
	// two adjacencies. Each list is capped, so appending to one copies it.
	nbs := make([]Neighbor, 0, 2*len(t.Links))
	for i := range t.Devices {
		d := &t.Devices[i]
		adjacent := func(up bool) []Neighbor {
			lo := len(nbs)
			for _, lid := range t.LinksOf(d.ID) {
				peer, peerAddr := t.Link(lid).Peer(d.ID)
				pd := t.Device(peer)
				if (pd.Role > d.Role) == up { // higher tier value = closer to RS
					nbs = append(nbs, Neighbor{
						Device: pd.ID, Name: pd.Name, Role: pd.Role,
						Cluster: pd.Cluster, ASN: pd.ASN, PeerAddr: peerAddr,
					})
				}
			}
			if len(nbs) == lo {
				return nil
			}
			return nbs[lo:len(nbs):len(nbs)]
		}
		f.Devices = append(f.Devices, DeviceFacts{
			ID: d.ID, Name: d.Name, Role: d.Role, Cluster: d.Cluster, ASN: d.ASN,
			HostedPrefixes: append([]ipnet.Prefix(nil), d.HostedPrefixes...),
			Uplinks:        adjacent(true),
			Downlinks:      adjacent(false),
		})
	}
	for _, hp := range t.HostedPrefixes() {
		f.Prefixes = append(f.Prefixes, PrefixFacts{Prefix: hp.Prefix, ToR: hp.ToR, Cluster: hp.Cluster})
	}
	return f
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
