// Package classcheck is the class-soundness gate's oracle, for tests. A
// scoped check hands the verdict of one device of a class to every other
// device of the class (rcdc.ClassSource); the class comes from a source's
// synthesis state. Key derives, independently of it, everything a device's
// verdict over a stretch of the prefix list reads, and Check asserts that
// devices sharing a class agree on it.
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

// Classer answers a class per device and stretch of positions
// (bgp.Synth.RunClass).
type Classer interface {
	RunClass(dev topology.DeviceID, lo, hi int) (fib.RunClass, bool)
}

// Runs derives a device's table as runs over the prefix list (a fresh
// bgp.Synth, whose state no journal updated).
type Runs interface {
	RunPrefixes() []topology.HostedPrefix
	TableRuns(dev topology.DeviceID, buf []fib.Run) fib.RunTable
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
	rt := src.TableRuns(d, nil)
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

// Check groups the devices ds scopes to rows without the default row by
// the class c answers for their scope's stretch, and fails on the first
// pair of one class and stretch whose content keys (Key) differ: the class
// claimed they are one device under two names. It returns the number of
// classes and of devices beyond the first of each, which a scoped check
// would hand a verdict.
func Check(topo *topology.Topology, c Classer, src Runs, gen *contracts.Generator, ds *delta.Set) (classes, members int, err error) {
	type group struct {
		class  fib.RunClass
		lo, hi int
	}
	first := map[group]topology.DeviceID{}
	keys := map[group]string{}
	ps := src.RunPrefixes()
	for _, d := range ds.Devices() {
		sc, _ := ds.Scope(d)
		lo, hi, ok := stretch(ps, sc)
		if !ok {
			continue
		}
		class, ok := c.RunClass(d, lo, hi)
		if !ok {
			continue
		}
		g := group{class, lo, hi}
		key := Key(topo, src, gen, d, lo, hi)
		rep, seen := first[g]
		if !seen {
			first[g], keys[g] = d, key
			continue
		}
		members++
		if key != keys[g] {
			return 0, 0, fmt.Errorf("class %+v over [%d,%d): devices %s and %s differ\n%s\n%s",
				class, lo, hi, topo.Device(rep).Name, topo.Device(d).Name, keys[g], key)
		}
	}
	return len(first), members, nil
}
