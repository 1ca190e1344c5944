// Package classcheck is the class-soundness gate's oracle, for tests. A
// check hands the verdict of one device of a class to every other device
// of the class over the stretches the class vouches for (rcdc.ClassSource);
// the class comes from a source's synthesis state. Key derives,
// independently of it, everything a device's verdict over a stretch of the
// prefix list reads, and Check asserts that devices sharing a class agree
// on it.
package classcheck

import (
	"fmt"
	"strings"

	"dcvalidate/internal/contracts"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/topology"
)

// Classer answers a class per device and stretch of positions, and the
// home a full check of a device merges on its own (bgp.Synth.RunClass and
// Home).
type Classer interface {
	RunClass(dev topology.DeviceID, lo, hi int) (fib.RunClass, bool)
	Home(dev topology.DeviceID) (lo, hi int, ok bool)
}

// Runs derives a device's table as runs over the prefix list (a fresh
// bgp.Synth, whose state no journal updated).
type Runs interface {
	RunPrefixes() []topology.HostedPrefix
	TableRuns(dev topology.DeviceID, lo, hi int, buf fib.RunTable) fib.RunTable
}

// Key returns the content key of device d over positions [lo, hi): its
// role, its table runs over the stretch as src derives them, its contract
// runs there, its rows outside the runs that overlap the stretch (a ToR's
// connected routes) and its default row, whose next-hop count a missing
// route reports. Two devices with one key yield the same violations over
// the stretch but for the device they name.
func Key(topo *topology.Topology, src Runs, gen *contracts.Generator, d topology.DeviceID, lo, hi int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "role=%v", topo.Device(d).Role)
	rt := src.TableRuns(d, 0, len(src.RunPrefixes()), fib.RunTable{})
	for _, r := range rt.Runs {
		if r.Hi > lo && r.Lo < hi {
			fmt.Fprintf(&b, " run[%d,%d)%v", max(r.Lo, lo), min(r.Hi, hi), r.NextHops)
		}
	}
	for _, r := range gen.Runs(d, nil).Runs {
		if r.Hi > lo && r.Lo < hi {
			fmt.Fprintf(&b, " contract[%d,%d)%v", max(r.Lo, lo), min(r.Hi, hi), r.NextHops)
		}
	}
	ps := src.RunPrefixes()
	first, last := ps[lo].Prefix.First(), ps[hi-1].Prefix.Last()
	for _, e := range rt.Rows {
		switch {
		case e.Prefix.IsDefault():
			fmt.Fprintf(&b, " default%v", e.NextHops)
		case e.Prefix.Last() >= first && e.Prefix.First() <= last:
			fmt.Fprintf(&b, " row %v connected=%v %v", e.Prefix, e.Connected, e.NextHops)
		}
	}
	return b.String()
}

// stretch returns the positions [lo, hi) of the prefix list a row scope
// without the default row reaches, from the first to the last position
// any of its rows overlaps; ok is false when the scope is whole, holds the
// default row or overlaps no position.
func stretch(ps []topology.HostedPrefix, sc delta.Scope) (lo, hi int, ok bool) {
	if sc.Whole || len(sc.Rows) == 0 || sc.Rows[0].IsDefault() {
		return 0, 0, false
	}
	lo, hi = len(ps), 0
	for _, q := range sc.Rows {
		l, h := ipnet.OverlapRun(len(ps), func(i int) ipnet.Prefix { return ps[i].Prefix }, q)
		if l < h {
			lo, hi = min(lo, l), max(hi, h)
		}
	}
	return lo, hi, lo < hi
}

// group is the devices a check hands one verdict: one class over one
// stretch of a row-scoped check, or over the positions around one home
// of a full check.
type group struct {
	class  fib.RunClass
	lo, hi int
	whole  bool
}

// classed returns a device's group for its scope sc and its content key
// over the group's stretches; ok is false when the check goes without a
// class. A row scope without the default row is classed over its stretch
// (see stretch). A whole device — the full-check mode — is classed over
// the positions before and after its home, which must be in one class.
func classed(topo *topology.Topology, c Classer, src Runs, gen *contracts.Generator, d topology.DeviceID, sc delta.Scope) (g group, key string, ok bool) {
	ps := src.RunPrefixes()
	if !sc.Whole {
		lo, hi, ok := stretch(ps, sc)
		if !ok {
			return g, "", false
		}
		class, ok := c.RunClass(d, lo, hi)
		return group{class: class, lo: lo, hi: hi}, Key(topo, src, gen, d, lo, hi), ok
	}
	lo, hi, ok := c.Home(d)
	if !ok {
		return g, "", false
	}
	g = group{lo: lo, hi: hi, whole: true}
	var keys []string
	for _, st := range [][2]int{{0, lo}, {hi, len(ps)}} {
		if st[0] >= st[1] {
			continue
		}
		class, ok := c.RunClass(d, st[0], st[1])
		if !ok || len(keys) > 0 && class != g.class {
			return g, "", false
		}
		g.class = class
		keys = append(keys, Key(topo, src, gen, d, st[0], st[1]))
	}
	return g, strings.Join(keys, " | "), len(keys) > 0
}

// Check groups the devices ds puts in scope — every device of topo when ds
// is full — by the class c answers for the stretches a check of theirs
// classes: a row scope's stretch, and a whole device's positions around
// its home (the full-check mode). It fails on the first pair of one class
// and stretch whose content keys (Key) differ: the class claimed they are
// one device under two names. It returns the number of classes and of
// devices beyond the first of each, which a check would hand a verdict.
func Check(topo *topology.Topology, c Classer, src Runs, gen *contracts.Generator, ds *delta.Set) (classes, members int, err error) {
	devs := ds.Devices()
	if ds.Full() {
		devs = make([]topology.DeviceID, len(topo.Devices))
		for i := range devs {
			devs[i] = topo.Devices[i].ID
		}
	}
	first := map[group]topology.DeviceID{}
	keys := map[group]string{}
	for _, d := range devs {
		sc, _ := ds.Scope(d)
		g, key, ok := classed(topo, c, src, gen, d, sc)
		if !ok {
			continue
		}
		rep, seen := first[g]
		if !seen {
			first[g], keys[g] = d, key
			continue
		}
		members++
		if key != keys[g] {
			return 0, 0, fmt.Errorf("class %+v over [%d,%d) (whole=%v): devices %s and %s differ\n%s\n%s",
				g.class, g.lo, g.hi, g.whole, topo.Device(rep).Name, topo.Device(d).Name, keys[g], key)
		}
	}
	return len(first), members, nil
}
