package main

import (
	"fmt"
	"math/rand"

	"dcvalidate/internal/engine"
	"dcvalidate/internal/topology"
)

// sizedParams are the fleet shape ratios every committed experiment uses
// (experiments.SizedParams): 40 ToRs + 8 leaves per cluster, 8 planes of
// 4 spines, 8 regional spines, one /24 per ToR. The benchmark owns a copy
// so that reconciling internal/experiments later cannot move its inputs.
func sizedParams(devices int) topology.Params {
	p := topology.Params{
		Name: "dc", ToRsPerCluster: 40, LeavesPerCluster: 8, SpinesPerPlane: 4,
		RegionalSpines: 8, RSLinksPerSpine: 4, PrefixesPerToR: 1,
	}
	fixed := p.LeavesPerCluster*p.SpinesPerPlane + p.RegionalSpines
	perCluster := p.ToRsPerCluster + p.LeavesPerCluster
	p.Clusters = max(1, (devices-fixed+perCluster-1)/perCluster)
	return p
}

// eventClass is the tier of link an event flips; it decides the blast
// radius and therefore the cost of the event.
type eventClass int

const (
	torLeafLink eventClass = iota
	leafSpineLink
	torLeafSession
	numEventClasses
)

func (c eventClass) String() string {
	return [...]string{"tor-leaf-link", "leaf-spine-link", "tor-leaf-session"}[c]
}

// event is one seeded state change plus the endpoint the operator asks
// about afterwards.
type event struct {
	class   eventClass
	restore bool
	link    topology.LinkID
	a, b    string // endpoint device names
	query   string // a or b
}

// change lowers the event to the engine's mutation vocabulary.
func (e event) change() engine.Change {
	kind := engine.FailLink
	switch {
	case e.class == torLeafSession && e.restore:
		kind = engine.RestoreSession
	case e.class == torLeafSession:
		kind = engine.ShutSession
	case e.restore:
		kind = engine.RestoreLink
	}
	return engine.Change{Kind: kind, A: e.a, B: e.b}
}

// httpWrite is the dcvalidated request that performs the event.
func (e event) httpWrite() string {
	path, action := "/link", "fail"
	if e.class == torLeafSession {
		path, action = "/session", "shut"
	}
	if e.restore {
		action = "restore"
	}
	return fmt.Sprintf("%s?a=%s&b=%s&action=%s", path, e.a, e.b, action)
}

func (e event) String() string {
	verb := "fail"
	if e.restore {
		verb = "restore"
	}
	return fmt.Sprintf("%s %s %s—%s", verb, e.class, e.a, e.b)
}

// eventGen draws a closed sequence of fail/restore events over a healthy
// fleet. Every event is a real state change: a link is failed only while
// it carries no fault and restored only while it carries one, because a
// restore of a healthy link journals nothing, leaves the serving cache
// valid, and would put a 3 µs cache hit among the change→verdict samples.
// At most maxFaults faults are outstanding at any time.
type eventGen struct {
	rng         *rand.Rand
	topo        *topology.Topology   // read-only model; never mutated
	weights     [numEventClasses]int // cards per class in one deck
	deck        []eventClass
	links       [numEventClasses][]topology.LinkID
	outstanding []event // currently failed, in failure order
	maxFaults   int
}

// linkChurnWeights is the link_churn mix, per deck of 20 events: 60 %
// ToR–leaf link, 25 % leaf–spine link, 15 % ToR–leaf session.
var linkChurnWeights = [numEventClasses]int{12, 5, 3}

// torLeafOnly deals ToR–leaf link flips only: one class, one cost.
var torLeafOnly = [numEventClasses]int{torLeafLink: 1}

func newEventGen(seed int64, topo *topology.Topology, weights [numEventClasses]int) *eventGen {
	g := &eventGen{rng: rand.New(rand.NewSource(seed)), topo: topo, weights: weights, maxFaults: 3}
	for i := range topo.Links {
		l := &topo.Links[i]
		ra, rb := topo.Device(l.A).Role, topo.Device(l.B).Role
		switch {
		case ra == topology.RoleToR && rb == topology.RoleLeaf:
			g.links[torLeafLink] = append(g.links[torLeafLink], l.ID)
			g.links[torLeafSession] = append(g.links[torLeafSession], l.ID)
		case ra == topology.RoleLeaf && rb == topology.RoleSpine:
			g.links[leafSpineLink] = append(g.links[leafSpineLink], l.ID)
		}
	}
	return g
}

// pickClass deals classes from a shuffled deck holding each class in
// proportion to its weight, so every stretch of events carries the mix
// and a run's median does not depend on how many cheap events the seed
// happened to draw.
func (g *eventGen) pickClass() eventClass {
	if len(g.deck) == 0 {
		for c, w := range g.weights {
			for i := 0; i < w; i++ {
				g.deck = append(g.deck, eventClass(c))
			}
		}
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	c := g.deck[len(g.deck)-1]
	g.deck = g.deck[:len(g.deck)-1]
	return c
}

func (g *eventGen) faulted(l topology.LinkID) bool {
	for _, o := range g.outstanding {
		if o.link == l {
			return true
		}
	}
	return false
}

// next draws the next event. A class is drawn by weight first; the event
// restores an outstanding fault of that class when one exists and either
// the fault budget is spent or a coin says so, and fails a fresh link of
// that class otherwise. With the budget spent and no fault of the drawn
// class to restore, the oldest outstanding fault is restored instead.
func (g *eventGen) next() event {
	class := g.pickClass()
	var ofClass []int
	for i, o := range g.outstanding {
		if o.class == class {
			ofClass = append(ofClass, i)
		}
	}
	full := len(g.outstanding) >= g.maxFaults
	switch {
	case len(ofClass) > 0 && (full || g.rng.Intn(2) == 0):
		return g.restoreAt(ofClass[g.rng.Intn(len(ofClass))])
	case full:
		return g.restoreAt(0)
	}
	var l topology.LinkID
	for {
		l = g.links[class][g.rng.Intn(len(g.links[class]))]
		if !g.faulted(l) {
			break
		}
	}
	lk := g.topo.Link(l)
	e := event{class: class, link: l, a: g.topo.Device(lk.A).Name, b: g.topo.Device(lk.B).Name}
	g.outstanding = append(g.outstanding, e)
	return g.withQuery(e)
}

// withQuery picks which endpoint the operator asks about.
func (g *eventGen) withQuery(e event) event {
	e.query = e.a
	if g.rng.Intn(2) == 0 {
		e.query = e.b
	}
	return e
}

func (g *eventGen) restoreAt(i int) event {
	e := g.outstanding[i]
	g.outstanding = append(g.outstanding[:i], g.outstanding[i+1:]...)
	e.restore = true
	return g.withQuery(e)
}

// drain returns the restores that bring the fleet back to healthy.
func (g *eventGen) drain() []event {
	var out []event
	for len(g.outstanding) > 0 {
		out = append(out, g.restoreAt(0))
	}
	return out
}

// directApply performs the event on a topology the benchmark owns — the
// traced pipeline's input, and the oracle's route to a fleet state that
// never touches the engine under test.
func directApply(topo *topology.Topology, ev event) {
	if ev.class == torLeafSession {
		topo.SetSessionUp(ev.link, ev.restore)
	} else {
		topo.SetLinkUp(ev.link, ev.restore)
	}
}

// deviceNames lists every device name in device order.
func deviceNames(topo *topology.Topology) []string {
	names := make([]string, len(topo.Devices))
	for i := range topo.Devices {
		names[i] = topo.Devices[i].Name
	}
	return names
}
