package main

import (
	"bytes"
	"math/rand"
	"os"
	"runtime"
	"time"

	"dcvalidate"
	"dcvalidate/internal/bgp"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/engine"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/pec"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/shard"
	"dcvalidate/internal/topology"
	"dcvalidate/internal/workload"
)

// fleet_sweep: the paper's headline. A 2008-device fleet carrying seeded
// §2.6.2 faults is built fresh, swept cold through the facade's default
// engine, then swept again with nothing changed; rounds repeat on fresh
// datacenters. Building the datacenter and injecting the faults is the
// round's set-up.

// fleetFault is one seeded §2.6.2 fault on a link, by link ID (stable
// across topologies built from the same parameters).
type fleetFault struct {
	drift bool // operation drift (session shut) rather than optical failure
	link  topology.LinkID
}

// pickFaults puts a hardware failure or an operation drift — the two
// link-level §2.6.2 classes — on n distinct links: two thirds ToR–leaf,
// one third leaf–spine, so the number of devices a seed turns red (and
// with it the violations a sweep has to render) stays comparable across
// seeds. The device-configuration classes are left out on purpose: a
// single device config anywhere in the fleet moves bgp.Synth onto a path
// three times slower for every table (README.md, "Findings"), which would
// make this workload measure that path instead of the sweep the paper's
// headline is about.
func pickFaults(rng *rand.Rand, model *topology.Topology, n int) []fleetFault {
	var torLeaf, leafSpine []topology.LinkID
	for i := range model.Links {
		l := &model.Links[i]
		switch model.Device(l.A).Role {
		case topology.RoleToR:
			torLeaf = append(torLeaf, l.ID)
		case topology.RoleLeaf:
			leafSpine = append(leafSpine, l.ID)
		}
	}
	var out []fleetFault
	draw := func(links []topology.LinkID, k int) {
		for _, i := range rng.Perm(len(links))[:k] {
			out = append(out, fleetFault{drift: rng.Intn(2) == 0, link: links[i]})
		}
	}
	draw(leafSpine, n/3)
	draw(torLeaf, n-n/3)
	return out
}

// injectFaults applies the faults to a fresh datacenter through the
// internal/workload injectors and returns every device a fault sits on.
func injectFaults(dc *dcvalidate.Datacenter, faults []fleetFault) []topology.DeviceID {
	sc := workload.NewScenario(dc.Topo)
	sc.Cfg = dc.Config
	for _, f := range faults {
		if f.drift {
			sc.InjectOperationDrift(f.link, false)
		} else {
			sc.InjectOpticalFailure(f.link)
		}
	}
	var hit []topology.DeviceID
	for _, inj := range sc.Injected {
		hit = append(hit, inj.Devices...)
	}
	return hit
}

func runFleetSweep(e *env) (*result, error) {
	res := newResult("fleet_sweep")
	p := sizedParams(e.sizes.fleetDevices)
	model, err := topology.New(p)
	if err != nil {
		return nil, err
	}
	faults := pickFaults(rand.New(rand.NewSource(e.opts.seed)), model, e.sizes.faults)

	var setup, cold, repeat samples
	var render []byte // the first sweep's render; every later one must match it
	sameRender := func(rep *dcvalidate.Report, what string) {
		r := renderReport(rep)
		if render == nil {
			render = r
		}
		res.expect(bytes.Equal(r, render), "%s of round %d renders differently from the first sweep", what, len(cold))
	}
	var last *dcvalidate.Datacenter
	var injected []topology.DeviceID
	var rate samples // repeat sweeps per second, one sample per sweep
	for b := newBudget(e.measureFor(), e.sizes.sweepRounds, 3); b.more(); {
		start := time.Now()
		dc, err := dcvalidate.NewDatacenter(p)
		if err != nil {
			return nil, err
		}
		injected = injectFaults(dc, faults)
		setup.addSeconds(time.Since(start))

		start = time.Now()
		first, err := dc.Validate(dcvalidate.ValidateOptions{})
		took := time.Since(start)
		if res.op(err) {
			cold.addMs(took)
			sameRender(first, "cold sweep")
		}

		start = time.Now()
		second, err := dc.Validate(dcvalidate.ValidateOptions{})
		took = time.Since(start)
		if res.op(err) {
			repeat.add(us(took))
			rate.add(perSecond(1, took))
			sameRender(second, "repeat sweep")
		}
		last = dc
	}

	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.row("setup_s", setup)
	res.set("peak_rss_mb", rss)
	res.row("change_to_verdict_p50_ms", cold)
	res.row("repeat_verdict_p50_us", repeat)
	res.row("repeat_verdicts_per_s", rate)
	res.counts["rounds"] = int64(len(cold))
	res.counts["faults"] = int64(len(faults))

	// Oracle. Every sweep of the same seeded fleet renders the same bytes,
	// cold or repeat; the PEC engine renders them too; every device a
	// fault sits on is red; and the fault-free fleet is green with the
	// global all-pairs intent holding (Claim 1: the local contracts that
	// just passed imply it).
	pec, err := last.Validate(dcvalidate.ValidateOptions{Engine: dcvalidate.EnginePEC})
	if err != nil {
		return nil, err
	}
	res.expect(bytes.Equal(renderReport(pec), render), "PEC report differs from the trie report")
	red := map[topology.DeviceID]bool{}
	for i := range pec.Devices {
		if !pec.Devices[i].Healthy() {
			red[pec.Devices[i].Device] = true
		}
	}
	for _, d := range injected {
		res.expect(red[d], "device %s carries an injected fault but validated green", model.Device(d).Name)
	}
	res.counts["red_devices"] = int64(len(red))

	healthy, err := dcvalidate.NewDatacenter(p)
	if err != nil {
		return nil, err
	}
	clean, err := healthy.Validate(dcvalidate.ValidateOptions{})
	if err != nil {
		return nil, err
	}
	res.expect(clean.Failures == 0, "fault-free fleet has %d violations", clean.Failures)
	unreachable, err := healthy.CheckGlobalIntent()
	if err != nil {
		return nil, err
	}
	res.expect(len(unreachable) == 0, "fault-free fleet: %d ToR pairs fail global intent", len(unreachable))
	return res, nil
}

// traceFleetSweep replays the seeded fleet through a hand-composed
// pipeline of the layers on one CPU (Workers=1, and GOMAXPROCS=1 because
// the engine and the coordinator pick their own worker counts), so stage
// self times add up to the pipeline's wall time: topology → facts → contracts → (table pull →
// check) per device inside ValidateAll, then the same sweep through the
// PEC checker cold and warm, the two-shard coordinator, and the engine's
// two entry points. Every round rebuilds the fleet; rows are medians over
// rounds.
func traceFleetSweep(e *env) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := newResult("fleet_sweep")
	p := sizedParams(e.sizes.fleetDevices)
	model, err := topology.New(p)
	if err != nil {
		return nil, err
	}
	faults := pickFaults(rand.New(rand.NewSource(e.opts.seed)), model, e.sizes.faults)
	acc := layerRows{}

	for b := newBudget(e.measureFor(), 2, 1); b.more(); {
		start := time.Now()
		dc, err := dcvalidate.NewDatacenter(p)
		if err != nil {
			return nil, err
		}
		acc.add("topology.build_ms", ms(time.Since(start)))
		injectFaults(dc, faults)
		topo, cfg := dc.Topo, dc.Config

		start = time.Now()
		facts := metadata.FromTopology(topo)
		acc.add("metadata.facts_ms", ms(time.Since(start)))

		// contracts.generate is timed on its own: inside ValidateAll the
		// generator is a concrete type the benchmark cannot decorate.
		start = time.Now()
		all := contracts.NewGenerator(facts).All()
		generate := time.Since(start)
		count := 0
		for i := range all {
			count += len(all[i].Contracts)
		}
		all = nil
		acc.add("contracts.generate_ms", ms(generate))
		acc.add("contracts.count", float64(count))

		// The decorated trie sweep.
		tr := newTracer()
		root := tr.begin("rcdc.validate_all", -1)
		src := &tracedSource{inner: bgp.NewSynth(topo, cfg), tr: tr, parent: root}
		v := rcdc.Validator{Checker: &tracedChecker{inner: rcdc.TrieChecker{}, tr: tr, parent: root}, Workers: 1}
		rep, err := v.ValidateAll(facts, src)
		tr.end(root)
		if !res.op(err) {
			continue
		}
		st := tr.stages()
		acc.add("bgp.table_build_ms", ms(st["bgp.table"].total))
		acc.add("bgp.tables_built", float64(st["bgp.table"].count))
		acc.add("bgp.fib_entries", float64(src.entries))
		acc.add("rcdc.trie_check_ms", ms(st["rcdc.check"].total))
		acc.add("rcdc.contracts_checked", float64(rep.Checked))
		acc.add("rcdc.validate_all_ms", ms(st["rcdc.validate_all"].total))
		acc.add("rcdc.validate_self_ms", ms(st["rcdc.validate_all"].self-generate))
		acc.add("trace.overhead_share", tr.overheadShare())
		render := renderReport(rep)

		// PEC: cold sweep (atomizes once per distinct shape), then warm.
		pc := &pec.Checker{}
		for _, leg := range []string{"pec.cold_check_ms", "pec.warm_check_ms"} {
			tr := newTracer()
			root := tr.begin("rcdc.validate_all", -1)
			v := rcdc.Validator{Checker: &tracedChecker{inner: pc, tr: tr, parent: root}, Workers: 1}
			before := pc.Stats()
			rep, err := v.ValidateAll(facts, bgp.NewSynth(topo, cfg))
			tr.end(root)
			if !res.op(err) {
				continue
			}
			acc.add(leg, ms(tr.stages()["rcdc.check"].total))
			res.expect(bytes.Equal(renderReport(rep), render), "%s: PEC report differs from the trie report", leg)
			after := pc.Stats()
			if leg == "pec.cold_check_ms" {
				acc.add("pec.shape_builds", float64(after.ShapeBuilds))
				acc.add("pec.shape_hit_ratio", safeDiv(float64(after.ShapeHits), float64(after.ShapeHits+after.ShapeBuilds+after.ShapeFallbacks)))
				acc.add("pec.atoms", float64(after.Atoms))
			} else {
				acc.add("pec.cache_hit_ratio", safeDiv(float64(after.CacheHits-before.CacheHits), float64(len(rep.Devices))))
			}
		}

		// The two-shard coordinator's cold sweep.
		start = time.Now()
		sharded, err := shard.New(topo, cfg, 2, shard.Options{}).Sweep()
		took := time.Since(start)
		if res.op(err) {
			acc.add("shard.sweep_full_ms", ms(took))
			res.expect(bytes.Equal(renderReport(sharded), render), "sharded sweep renders differently from the single sweep")
		}

		// The engine's two routes to a first full report: Validate, and
		// the first query on a fresh engine (the serving plane's cold
		// sweep, through the table-cached source).
		start = time.Now()
		_, err = engine.New(topo, cfg).Validate(engine.Options{Workers: 1})
		took = time.Since(start)
		if res.op(err) {
			acc.add("engine.validate_ms", ms(took))
		}
		start = time.Now()
		_, err = engine.New(topo, cfg).QueryDevice(model.Devices[0].Name)
		took = time.Since(start)
		if res.op(err) {
			acc.add("engine.serving_cold_sweep_ms", ms(took))
		}
	}
	acc.into(res)
	for _, n := range []string{"contracts.count", "bgp.tables_built", "bgp.fib_entries", "rcdc.contracts_checked", "pec.shape_builds", "pec.atoms"} {
		res.counts[n] = int64(res.metrics[n])
	}
	return res, nil
}
