package main

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dcvalidate/internal/topology"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {16, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	var s samples
	for i := 1; i <= 100; i++ {
		s.add(float64(i))
	}
	sum := summarize(s)
	if sum.n != 100 || sum.p50 != 50.5 || sum.tailP != 90 || sum.max != 100 {
		t.Errorf("summarize(1..100) = %+v", sum)
	}
	if got := summarize(s[:50]); got.tailP != 0 || strings.Contains(got.String(), "p90") {
		t.Errorf("50 samples must not report a tail: %v", got)
	}
}

func TestSpreadIsQuartileDistanceOverMedian(t *testing.T) {
	s := samples{10, 11, 12, 13, 14}
	if got := spread(s); got != 2.0/12 {
		t.Errorf("spread = %g, want %g", got, 2.0/12)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{name: "sweep", parent: -1, start: at(0), end: at(100)},
		{name: "table", parent: 0, start: at(10), end: at(40)},
		{name: "table", parent: 0, start: at(30), end: at(60)},  // overlaps the first
		{name: "check", parent: 0, start: at(80), end: at(120)}, // runs past the parent: clipped
		{name: "solve", parent: 3, start: at(85), end: at(95)},  // grandchild: only its parent pays
		{name: "inside", parent: 0, start: at(35), end: at(50)}, // wholly inside covered time
		{name: "other-root", parent: -1, start: at(0), end: at(7)},
	}
	self := selfTimes(spans)
	// Children cover 10–60 and 80–100 of the parent: 70 ms, so 30 ms self.
	want := []time.Duration{at(30), at(30), at(30), at(30), at(10), at(15), at(7)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %v, want %v", i, spans[i].name, self[i], want[i])
		}
	}
}

func TestTracerStagesSumSelfToRoot(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", -1)
	for i := 0; i < 3; i++ {
		id := tr.begin("stage", root)
		time.Sleep(time.Millisecond)
		tr.end(id)
	}
	tr.end(root)
	st := tr.stages()
	if st["stage"].count != 3 {
		t.Fatalf("stage count = %d", st["stage"].count)
	}
	if got, want := st["root"].self+st["stage"].total, st["root"].total; got != want {
		t.Errorf("sequential children: self + children = %v, root = %v", got, want)
	}
	if share := tr.overheadShare(); share <= 0 || share > 0.05 {
		t.Errorf("overhead share of 4 spans over 3 ms = %g", share)
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	l := lateness{due: t0, sent: t0.Add(30 * time.Millisecond), done: t0.Add(80 * time.Millisecond)}
	if l.latency() != 80*time.Millisecond {
		t.Errorf("latency = %v, want 80ms: the 30 ms the generator ran late is the system's fault", l.latency())
	}
	if l.lag() != 30*time.Millisecond {
		t.Errorf("lag = %v, want 30ms", l.lag())
	}
}

func TestReaderStallIsLongestOverlappingRead(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	observed := []interval{
		{at(0), at(5)},     // before the write
		{at(95), at(160)},  // straddles the send: overlaps
		{at(160), at(170)}, // inside
		{at(170), at(400)}, // starts inside the window, ends after: overlaps
		{at(400), at(900)}, // after the fresh read: does not count
	}
	writes := []writeRecord{{times: lateness{due: at(100), sent: at(100), done: at(200)}}}
	got := readerStalls(writes, observed)
	if len(got) != 1 || got[0] != 230 {
		t.Errorf("reader stall = %v, want [230]", got)
	}
}

// Every generated event must move the topology by exactly one journaled
// change: a restore of a healthy link would be answered from the serving
// cache in microseconds and poison the change→verdict median.
func TestEventGenNeverEmitsNoOp(t *testing.T) {
	p := sizedParams(136)
	model := topology.MustNew(p)
	live := topology.MustNew(p)
	for seed := int64(1); seed <= 3; seed++ {
		gen := newEventGen(seed, model, linkChurnWeights)
		byClass := [numEventClasses]int{}
		for i := 0; i < 400; i++ {
			ev := gen.next()
			before := live.Generation()
			directApply(live, ev)
			if live.Generation() != before+1 {
				t.Fatalf("seed %d event %d (%s): generation moved by %d, want 1", seed, i, ev, live.Generation()-before)
			}
			if len(gen.outstanding) > gen.maxFaults {
				t.Fatalf("seed %d event %d: %d faults outstanding", seed, i, len(gen.outstanding))
			}
			if ev.query != ev.a && ev.query != ev.b {
				t.Fatalf("event %s queries %s, not an endpoint", ev, ev.query)
			}
			if !ev.restore {
				byClass[ev.class]++
			}
		}
		if byClass[torLeafLink] < byClass[leafSpineLink] || byClass[leafSpineLink] < byClass[torLeafSession] {
			t.Errorf("seed %d: class mix %v does not follow the 60/25/15 weights", seed, byClass)
		}
		for _, ev := range gen.drain() {
			before := live.Generation()
			directApply(live, ev)
			if live.Generation() != before+1 {
				t.Fatalf("drain event %s is a no-op", ev)
			}
		}
		for i := range live.Links {
			if !live.Links[i].Live() {
				t.Fatalf("seed %d: link %d still down after drain", seed, i)
			}
		}
	}
	// The model the generator reads must never be written.
	if model.Generation() != 0 {
		t.Errorf("event generator mutated its model topology (generation %d)", model.Generation())
	}
}

func TestEventGenIsDeterministic(t *testing.T) {
	model := topology.MustNew(sizedParams(136))
	a, b := newEventGen(9, model, linkChurnWeights), newEventGen(9, model, linkChurnWeights)
	for i := 0; i < 100; i++ {
		if x, y := a.next(), b.next(); x != y {
			t.Fatalf("event %d differs under the same seed: %s vs %s", i, x, y)
		}
	}
}

func TestOracleFlagsCorruptedVerdict(t *testing.T) {
	p := sizedParams(136)
	model := topology.MustNew(p)
	gen := newEventGen(4, model, torLeafOnly)
	gen.next()
	truth, err := truthSweep(p, gen.outstanding)
	if err != nil {
		t.Fatal(err)
	}
	if truth.Failures == 0 {
		t.Fatal("a failed ToR–leaf link produced no violations")
	}
	served := verdictsOfReport(truth)
	if wrong := compareVerdicts(served, verdictsOfReport(truth)); len(wrong) != 0 {
		t.Fatalf("identical verdicts flagged: %v", wrong)
	}
	red := -1
	for i, v := range served {
		if !v.conformant {
			red = i
			break
		}
	}

	flipped := append([]verdict(nil), served...)
	flipped[red].conformant = true
	if wrong := compareVerdicts(flipped, verdictsOfReport(truth)); len(wrong) != 1 || !strings.Contains(wrong[0], served[red].device) {
		t.Errorf("a red device served as green was not flagged: %v", wrong)
	}
	dropped := append([]verdict(nil), served...)
	dropped[red].violations = dropped[red].violations[1:]
	if wrong := compareVerdicts(dropped, verdictsOfReport(truth)); len(wrong) != 1 {
		t.Errorf("a dropped violation was not flagged: %v", wrong)
	}
	if wrong := compareVerdicts(served[1:], verdictsOfReport(truth)); len(wrong) != 1 {
		t.Errorf("a missing device was not flagged: %v", wrong)
	}

	// The healthy fleet must not pass for the faulty one, byte for byte.
	healthy, err := truthSweep(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(renderReport(healthy), renderReport(truth)) {
		t.Error("render does not distinguish a healthy fleet from a faulty one")
	}
}

func TestPolicyOracleReevaluatesWitnesses(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	contracts := backupContracts()
	seen := map[bool]bool{}
	for i := 0; i < 40; i++ {
		doc, err := genNSG(rng)
		if err != nil {
			t.Fatal(err)
		}
		p, rep, err := checkNSG(doc, contracts)
		if err != nil {
			t.Fatal(err)
		}
		res := newResult("test")
		verifyOutcomes(res, "doc", p, rep, !doc.breaking)
		if len(res.wrong) != 0 {
			t.Fatalf("breaking=%v: correct verdict flagged: %v", doc.breaking, res.wrong)
		}
		// The same report held against the opposite expectation is wrong.
		verifyOutcomes(res, "doc", p, rep, doc.breaking)
		if len(res.wrong) == 0 {
			t.Fatalf("breaking=%v: inverted expectation not flagged", doc.breaking)
		}
		if doc.breaking && !seen[true] {
			// A witness that does not demonstrate the violation is caught
			// by the interpreter, not taken on the solver's word.
			bad := *rep
			bad.Outcomes = append(bad.Outcomes[:0:0], rep.Outcomes...)
			for j := range bad.Outcomes {
				if !bad.Outcomes[j].Preserved {
					bad.Outcomes[j].Witness.SrcIP ^= 0xffffffff
				}
			}
			res := newResult("test")
			verifyOutcomes(res, "doc", p, &bad, false)
			if len(res.wrong) == 0 {
				t.Error("corrupted witness packet not flagged")
			}
		}
		seen[doc.breaking] = true
	}
	if !seen[true] || !seen[false] {
		t.Errorf("40 documents did not cover both edit kinds: %v", seen)
	}
}

func TestContractLine(t *testing.T) {
	decl := &declaration{
		EndToEnd: []metricDecl{{Name: "setup_s", Unit: "s"}, {Name: "x_ms", Unit: "ms"}},
		PerLayer: []metricDecl{{Name: "a.b_ms", Unit: "ms"}, {Name: "c.d", Unit: "count"}},
	}
	res := newResult("w")
	res.attempted, res.failed = 10, 1
	res.set("setup_s", 0.5)
	if _, err := decl.contractLine(res, false); err == nil {
		t.Error("a missing end-to-end metric must be an error")
	}
	res.set("x_ms", 1.25)
	line, err := decl.contractLine(res, false)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":10,"failed":1,"metrics":{"setup_s":{"value":0.5,"unit":"s"},"x_ms":{"value":1.25,"unit":"ms"}}}`
	if line != want {
		t.Errorf("contract line\n got %s\nwant %s", line, want)
	}
	res.set("undeclared", 1)
	if _, err := decl.contractLine(res, false); err == nil {
		t.Error("an undeclared metric must be an error")
	}

	layer := newResult("w")
	layer.attempted = 1
	layer.set("a.b_ms", 2)
	layer.expect(false, "oracle disagreed")
	line, err = decl.contractLine(layer, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, `"correct":false`) || !strings.Contains(line, `"c.d":{"value":0,"unit":"count"}`) {
		t.Errorf("traced line = %s", line)
	}
}

func TestDeclarationFileCoversTheContract(t *testing.T) {
	decl, err := loadDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(append([]metricDecl(nil), decl.EndToEnd...), decl.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range decl.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

func TestBudget(t *testing.T) {
	b := newBudget(0, 5, 2)
	n := 0
	for b.more() {
		n++
	}
	if n != 5 {
		t.Errorf("count-bound budget ran %d ops, want 5", n)
	}
	b = newBudget(time.Nanosecond, 100, 3)
	n = 0
	for b.more() {
		n++
	}
	if n != 3 {
		t.Errorf("expired timed budget ran %d ops, want its minimum 3", n)
	}
}
