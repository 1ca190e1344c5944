package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"dcvalidate"
	"dcvalidate/internal/bgp"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/engine"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/pec"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/shard"
	"dcvalidate/internal/topology"
)

// link_churn: the operator's event. A warmed 2008-device datacenter takes
// a closed-loop stream of seeded link and session flips from one client;
// every change is immediately followed by QueryDevice on an endpoint
// (change → fresh verdict, a serving-cache miss that revalidates the blast
// radius), then by a burst of repeat queries on other devices (cache
// hits). Several rounds, each on a fresh datacenter, give set-up time a
// median.

// checkpoint is a fleet state the oracle re-derives after measuring: the
// faults outstanding at that point and every verdict the plane served.
type checkpoint struct {
	at          string
	outstanding []event
	served      []verdict
}

func applyEvent(dc *dcvalidate.Datacenter, ev event) error {
	switch {
	case ev.class == torLeafSession && ev.restore:
		return dc.RestoreSession(ev.a, ev.b)
	case ev.class == torLeafSession:
		return dc.ShutSession(ev.a, ev.b)
	case ev.restore:
		return dc.RestoreLink(ev.a, ev.b)
	}
	return dc.FailLink(ev.a, ev.b)
}

// servedVerdicts asks the serving plane about every device, in device
// order.
func servedVerdicts(dc *dcvalidate.Datacenter) ([]verdict, error) {
	out := make([]verdict, 0, len(dc.Topo.Devices))
	for i := range dc.Topo.Devices {
		ans, err := dc.QueryDevice(dc.Topo.Devices[i].Name)
		if err != nil {
			return nil, err
		}
		out = append(out, verdictOfAnswer(ans))
	}
	return out, nil
}

func runLinkChurn(e *env) (*result, error) {
	res := newResult("link_churn")
	p := sizedParams(e.sizes.fleetDevices)
	model, err := topology.New(p)
	if err != nil {
		return nil, err
	}
	names := deviceNames(model)

	var setup, changeToVerdict, repeat samples
	var checkpoints []checkpoint
	var rate samples // repeat queries per second, one sample per burst
	events := 0
	perRound := e.measureFor() / time.Duration(e.sizes.churnRounds)
	for round := 0; round < e.sizes.churnRounds; round++ {
		gen := newEventGen(e.opts.seed*1000+int64(round), model, linkChurnWeights)

		start := time.Now()
		dc, err := dcvalidate.NewDatacenter(p)
		if err != nil {
			return nil, err
		}
		_, err = dc.QueryDevice(names[0]) // the warm sweep
		setup.addSeconds(time.Since(start))
		if err != nil {
			return nil, err
		}

		step := func(measured bool) error {
			ev := gen.next()
			before := dc.Topo.Generation()
			start := time.Now()
			err := applyEvent(dc, ev)
			var ans *dcvalidate.DeviceAnswer
			if err == nil {
				ans, err = dc.QueryDevice(ev.query)
			}
			took := time.Since(start)
			if !measured {
				return err
			}
			if !res.op(err) {
				return nil
			}
			changeToVerdict.addMs(took)
			events++
			res.expect(dc.Topo.Generation() == before+1, "%s: generation moved %d→%d, want one step", ev, before, dc.Topo.Generation())
			res.expect(ans.Generation == before+1 && !ans.Cached,
				"%s: answer generation=%d cached=%v, want a fresh verdict at generation %d", ev, ans.Generation, ans.Cached, before+1)

			// Repeat queries rotate over the fleet from a seeded offset. A
			// hit costs well under a microsecond, below what one clock
			// read resolves, so the burst is timed as a whole.
			offset := gen.rng.Intn(len(names))
			answers := make([]*dcvalidate.DeviceAnswer, 0, e.sizes.churnHits)
			hitStart := time.Now()
			for i := 0; i < e.sizes.churnHits; i++ {
				hit, err := dc.QueryDevice(names[(offset+i*7)%len(names)])
				if err != nil {
					return err
				}
				answers = append(answers, hit)
			}
			burst := time.Since(hitStart)
			repeat.add(us(burst) / float64(len(answers)))
			rate.add(perSecond(len(answers), burst))
			res.attempted += len(answers)
			for _, hit := range answers {
				res.expect(hit.Cached && hit.Generation == before+1, "repeat query after %s: cached=%v generation=%d", ev, hit.Cached, hit.Generation)
			}

			if events%10 == 0 {
				served, err := servedVerdicts(dc)
				if err != nil {
					return err
				}
				checkpoints = append(checkpoints, checkpoint{
					at: fmt.Sprintf("round %d event %d", round, events), served: served,
					outstanding: append([]event(nil), gen.outstanding...),
				})
			}
			return nil
		}
		for i := 0; i < e.sizes.churnWarmup; i++ {
			if err := step(false); err != nil {
				return nil, err
			}
		}
		for b := newBudget(perRound, e.sizes.churnEvents, 3); b.more(); {
			if err := step(true); err != nil {
				return nil, err
			}
		}

		// Back to healthy through the plane, then one last look.
		for _, ev := range gen.drain() {
			if err := applyEvent(dc, ev); err != nil {
				return nil, err
			}
		}
		served, err := servedVerdicts(dc)
		if err != nil {
			return nil, err
		}
		checkpoints = append(checkpoints, checkpoint{at: fmt.Sprintf("round %d final healthy state", round), served: served})
	}

	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.row("setup_s", setup)
	res.set("peak_rss_mb", rss)
	res.row("change_to_verdict_p50_ms", changeToVerdict)
	res.row("repeat_verdict_p50_us", repeat)
	res.row("repeat_verdicts_per_s", rate)
	res.counts["events"] = int64(events)
	res.counts["checkpoints"] = int64(len(checkpoints))

	for _, cp := range checkpoints {
		truth, err := truthSweep(p, cp.outstanding)
		if err != nil {
			return nil, err
		}
		for _, w := range compareVerdicts(cp.served, verdictsOfReport(truth)) {
			res.expect(false, "%s: %s", cp.at, w)
		}
		if len(cp.outstanding) == 0 {
			res.expect(truth.Failures == 0, "%s: healthy fleet has %d violations", cp.at, truth.Failures)
		}
	}
	return res, nil
}

// traceLinkChurn replays the seeded event stream twice per event. Once
// through a hand-composed pipeline of the layers on a topology of its own
// (journal read → delta.Compute → Synth.Refresh → memoized contracts →
// ValidateDelta with decorated source and checker): the sum of those
// stages is the floor the layers set for a change → verdict. And
// once through engine.Apply + engine.QueryDevice on a second topology:
// what the serving plane actually takes. The difference,
// engine.delta_overhead_ms, is the E16-vs-E19 gap as one number. The PEC
// checker and the two-shard coordinator take the same events on the
// composed topology for their own delta costs. The whole run is pinned to
// one CPU (GOMAXPROCS=1): the engine sizes its worker pool from
// GOMAXPROCS, and floor and engine are only comparable — and stage times
// only sum to wall — when both run one worker.
func traceLinkChurn(e *env) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Five warm pipelines share this process and hold a few GB live, so
	// one collector cycle costs over a second on one CPU and lands on
	// whichever stage happens to be running. The collector is therefore
	// off while stages are timed and runs between events: stage times are
	// net of GC, equally for the floor and for the engine.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	res := newResult("link_churn")
	p := sizedParams(e.sizes.fleetDevices)
	topo, err := topology.New(p)
	if err != nil {
		return nil, err
	}
	engTopo, err := topology.New(p)
	if err != nil {
		return nil, err
	}
	facts := metadata.FromTopology(topo)
	acc := layerRows{}

	// Warm state of the composed pipeline: table-cached source, memoized
	// contracts, one full report each for the trie and the PEC checker.
	reg := obs.NewRegistry()
	synth := bgp.NewSynth(topo, nil)
	synth.EnableTableCache()
	synth.Metrics = bgp.NewMetrics(reg)
	cgen := contracts.NewGenerator(facts)
	cgen.EnableMemo()
	seq := rcdc.Validator{Workers: 1}
	prev, err := seq.ValidateAll(facts, synth)
	if err != nil {
		return nil, err
	}
	pc := &pec.Checker{}
	pecPrev, err := (&rcdc.Validator{Checker: pc, Workers: 1}).ValidateAll(facts, synth)
	if err != nil {
		return nil, err
	}
	co := shard.New(topo, nil, 2, shard.Options{})
	if _, err := co.Sweep(); err != nil {
		return nil, err
	}
	eng := engine.New(engTopo, nil)
	if _, err := eng.QueryDevice(topo.Devices[0].Name); err != nil {
		return nil, err
	}

	// A traced run gets through a handful of events; a median over a mix
	// of 30 ms and 600 ms classes would be whichever class the deck dealt
	// more of. It replays the class that sets the end-to-end median.
	gen := newEventGen(e.opts.seed*1000, topo, torLeafOnly)
	events := 0
	measured := acc
	for b := newBudget(e.measureFor(), e.sizes.churnWarmup+e.sizes.churnEvents/3, e.sizes.churnWarmup+3); b.more(); {
		// The first events fill the contract memos of both pipelines and
		// are not recorded.
		acc = measured
		if events < e.sizes.churnWarmup {
			acc = layerRows{}
		}
		runtime.GC()
		ev := gen.next()
		events++
		since := topo.Generation()
		directApply(topo, ev)

		// The floor: the composed stages, traced.
		hitsBefore, missesBefore := registryValue(reg, "dcv_bgp_synth_cache_hits_total"), registryValue(reg, "dcv_bgp_synth_cache_misses_total")
		tr := newTracer()
		root := tr.begin("event", -1)
		sp := tr.begin("delta.compute", root)
		changes, ok := topo.ChangesSince(since)
		ds := delta.Compute(topo, changes, delta.Options{})
		tr.end(sp)
		if !ok || ds.Full() {
			return nil, fmt.Errorf("%s: blast radius is unbounded (journal ok=%v)", ev, ok)
		}
		dirty := ds.Devices()
		sp = tr.begin("bgp.refresh", root)
		synth.Refresh()
		tr.end(sp)
		sp = tr.begin("contracts.memo", root)
		for _, d := range dirty {
			cgen.ForDevice(d)
		}
		tr.end(sp)
		sp = tr.begin("rcdc.validate_delta", root)
		v := rcdc.Validator{Workers: 1,
			Checker: &tracedChecker{inner: rcdc.TrieChecker{}, tr: tr, parent: sp}}
		rep, err := v.ValidateDelta(prev, facts, cgen, &tracedSource{inner: synth, tr: tr, parent: sp}, dirty)
		tr.end(sp)
		tr.end(root)
		if !res.op(err) {
			continue
		}
		prev = rep
		st := tr.stages()
		floor := st["event"].total
		acc.add("delta.compute_us", us(st["delta.compute"].total))
		acc.add("delta.dirty_devices", float64(len(dirty)))
		acc.add("delta.dirty_share", safeDiv(float64(len(dirty)), float64(len(topo.Devices))))
		acc.add("bgp.refresh_ms", ms(st["bgp.refresh"].total))
		acc.add("contracts.memo_us", us(st["contracts.memo"].total))
		acc.add("bgp.table_rebuild_ms", ms(st["bgp.table"].total))
		acc.add("bgp.tables_rebuilt", float64(st["bgp.table"].count))
		acc.add("rcdc.check_dirty_ms", ms(st["rcdc.check"].total))
		acc.add("rcdc.validate_delta_ms", ms(st["rcdc.validate_delta"].total))
		acc.add("rcdc.splice_self_ms", ms(st["rcdc.validate_delta"].self))
		acc.add("engine.delta_floor_ms", ms(floor))
		hits := registryValue(reg, "dcv_bgp_synth_cache_hits_total") - hitsBefore
		misses := registryValue(reg, "dcv_bgp_synth_cache_misses_total") - missesBefore
		acc.add("bgp.cache_hit_ratio", safeDiv(hits, hits+misses))
		acc.add("trace.overhead_share", tr.overheadShare())

		// PEC on the same event: invalidate the blast radius, re-check it.
		start := time.Now()
		pc.Invalidate(dirty)
		acc.add("pec.invalidate_us", us(time.Since(start)))
		tr = newTracer()
		root = tr.begin("rcdc.validate_delta", -1)
		pv := rcdc.Validator{Workers: 1, Checker: &tracedChecker{inner: pc, tr: tr, parent: root}}
		pecRep, err := pv.ValidateDelta(pecPrev, facts, cgen, synth, dirty)
		tr.end(root)
		if res.op(err) {
			pecPrev = pecRep
			acc.add("pec.delta_check_ms", ms(tr.stages()["rcdc.check"].total))
			res.expect(bytes.Equal(renderReport(pecRep), renderReport(rep)), "%s: PEC delta report differs from the trie delta report", ev)
		}

		// The coordinator reads the same journal.
		start = time.Now()
		sharded, err := co.Sweep()
		took := time.Since(start)
		if res.op(err) {
			acc.add("shard.sweep_delta_ms", ms(took))
			acc.add("shard.dirty_devices", float64(len(dirty)))
			res.expect(bytes.Equal(renderReport(sharded), renderReport(rep)), "%s: sharded delta sweep differs from the composed delta report", ev)
		}

		// The serving plane on the same event.
		start = time.Now()
		err = eng.Apply(ev.change())
		applied := time.Since(start)
		if !res.op(err) {
			continue
		}
		start = time.Now()
		ans, err := eng.QueryDevice(ev.query)
		miss := time.Since(start)
		if !res.op(err) {
			continue
		}
		start = time.Now()
		const hitBurst = 100
		for i := 0; i < hitBurst; i++ {
			if _, err := eng.QueryDevice(ev.query); err != nil {
				return nil, err
			}
		}
		hit := time.Since(start) / hitBurst
		acc.add("engine.apply_us", us(applied))
		acc.add("engine.query_miss_ms", ms(miss))
		acc.add("engine.query_hit_us", us(hit))
		acc.add("engine.delta_overhead_ms", ms(applied+miss-floor))
		for i := range rep.Devices {
			if rep.Devices[i].Name == ev.query {
				res.expect(verdictOfAnswer(ans).equal(verdictOfDevice(&rep.Devices[i])),
					"%s: engine verdict for %s differs from the composed pipeline's", ev, ev.query)
			}
		}
	}
	res.counts["events"] = int64(events)
	measured.into(res)
	// Device counts repeat exactly under a seed; sum them for -selfcheck.
	for _, n := range measured["delta.dirty_devices"] {
		res.counts["delta.dirty_devices"] += int64(n)
	}
	return res, nil
}
