package rcdc

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/classcheck"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/topology"
)

// renderRunsReport is every field of a report a check decides — verdicts,
// witnesses, severities, contract counts — without timings.
func renderRunsReport(rep *Report) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "checked=%d failures=%d\n", rep.Checked, rep.Failures)
	for i := range rep.Devices {
		d := &rep.Devices[i]
		fmt.Fprintf(&buf, "dev=%d name=%s role=%s contracts=%d\n", d.Device, d.Name, d.Role, d.Contracts)
		for _, v := range d.Violations {
			fmt.Fprintf(&buf, "  %s rule=%s remaining=%d hops=%v\n", v.String(), v.RulePrefix, v.Remaining, v.Contract.NextHops)
		}
	}
	return buf.Bytes()
}

// fuzzBytes hands out fuzz input one byte at a time, zeros once it runs dry.
type fuzzBytes struct{ data []byte }

func (r *fuzzBytes) byte() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

func (r *fuzzBytes) intn(n int) int { return r.byte() % n }

// runCell is one position of a device's prefix list while its runs are
// edited: absent, or a row forwarding to hops; consecutive present cells
// of one group are one run.
type runCell struct {
	present bool
	group   int
	hops    []topology.DeviceID
}

// editedRuns is a RunSource whose tables are a synthesizer's runs with
// faults no synthesizer makes — dropped rows, changed or empty next-hop
// sets, extra rows beside the runs that contain, equal or sit inside a run
// position, a missing or rewired default — fixed per device up front.
type editedRuns struct {
	prefixes []topology.HostedPrefix
	tables   map[topology.DeviceID]fib.RunTable
}

func (e *editedRuns) RunPrefixes() []topology.HostedPrefix { return e.prefixes }

func (e *editedRuns) TableRuns(d topology.DeviceID, lo, hi int, buf fib.RunTable) fib.RunTable {
	rt := e.tables[d]
	rt.Rows, rt.Runs = append(buf.Rows[:0], rt.Rows...), append(buf.Runs[:0], rt.Runs...)
	return rt
}

// allRuns returns d's runs over the whole prefix list.
func allRuns(src RunSource, d topology.DeviceID) fib.RunTable {
	return src.TableRuns(d, 0, len(src.RunPrefixes()), fib.RunTable{})
}

func (e *editedRuns) Table(d topology.DeviceID) (*fib.Table, error) {
	return e.tables[d].Expand(e.prefixes), nil
}

// editRuns derives every device's runs from synth and applies the edits r
// asks for.
func editRuns(topo *topology.Topology, synth *bgp.Synth, r *fuzzBytes) *editedRuns {
	ps := synth.RunPrefixes()
	e := &editedRuns{prefixes: ps, tables: map[topology.DeviceID]fib.RunTable{}}
	hopSet := func() []topology.DeviceID {
		hops := []topology.DeviceID{}
		for k := r.intn(4); k > 0; k-- {
			hops = append(hops, topology.DeviceID(r.intn(len(topo.Devices))))
		}
		slices.Sort(hops)
		return slices.Compact(hops)
	}
	for i := range topo.Devices {
		d := topo.Devices[i].ID
		rt := allRuns(synth, d)
		cells := make([]runCell, len(ps))
		for g, run := range rt.Runs {
			for pos := run.Lo; pos < run.Hi; pos++ {
				cells[pos] = runCell{present: true, group: g + 1, hops: run.NextHops}
			}
		}
		rows := slices.Clone(rt.Rows)
		group := len(rt.Runs) + 1
		for k := r.intn(4); k > 0 && len(ps) > 0; k-- {
			lo := r.intn(len(ps))
			hi := min(len(ps), lo+1+r.intn(3))
			p := ps[lo].Prefix
			switch r.intn(6) {
			case 0: // drop rows
				for pos := lo; pos < hi; pos++ {
					cells[pos] = runCell{}
				}
			case 1: // rewire rows, or fill a gap: a run of its own
				hops := hopSet()
				for pos := lo; pos < hi; pos++ {
					cells[pos] = runCell{present: true, group: group, hops: hops}
				}
				group++
			case 2: // a more-specific row inside a run position
				bits := uint8(p.Bits) + 1 + uint8(r.intn(int(32-p.Bits)))
				rows = append(rows, fib.Entry{Prefix: ipnet.PrefixFrom(p.Addr|ipnet.Addr(r.byte()), bits), NextHops: hopSet()})
			case 3: // an aggregate over several run positions
				rows = append(rows, fib.Entry{Prefix: ipnet.PrefixFrom(p.Addr, uint8(8+r.intn(int(p.Bits)-8))), NextHops: hopSet()})
			case 4: // a second row at a run position's own prefix
				rows = append(rows, fib.Entry{Prefix: p, NextHops: hopSet()})
			case 5: // the default row: dropped or rewired
				rows = slices.DeleteFunc(rows, func(e fib.Entry) bool { return e.Prefix.IsDefault() })
				if r.intn(2) == 0 {
					rows = append(rows, fib.Entry{NextHops: hopSet()})
				}
			}
		}
		out := fib.RunTable{Device: d, Rows: rows}
		for pos, c := range cells {
			if !c.present {
				continue
			}
			if n := len(out.Runs); n > 0 && out.Runs[n-1].Hi == pos && cells[pos-1].group == c.group {
				out.Runs[n-1].Hi++
				continue
			}
			out.Runs = append(out.Runs, fib.Run{Lo: pos, Hi: pos + 1, NextHops: c.hops})
		}
		e.tables[d] = out
	}
	return e
}

// checkRunsAgainstRows validates src twice — as runs, and through a
// wrapper that hides the runs so every table is merge-joined row by row —
// and fails unless both render the same bytes. It returns the run segments
// the runs path decided clean and expanded.
func checkRunsAgainstRows(t testing.TB, facts *metadata.Facts, src RunSource, exact bool) (clean, expanded uint64) {
	t.Helper()
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	runs := Validator{Checker: TrieChecker{Exact: exact}, Workers: 1, Metrics: m}
	rows := Validator{Checker: TrieChecker{Exact: exact}, Workers: 1}
	got, err := runs.ValidateAll(facts, src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rows.ValidateAll(facts, plainSource{src})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := renderRunsReport(got), renderRunsReport(want); !bytes.Equal(g, w) {
		t.Fatalf("runs path diverges from the row merge-join (exact=%v)\n--- runs ---\n%s--- rows ---\n%s", exact, g, w)
	}
	return m.runsClean.Value(), m.runsExpanded.Value()
}

// FuzzRunsDifferential is the runs path's oracle: random flat-plan fleets
// with random link and session faults, whose synthesized runs are then
// edited into tables no healthy or faulted fleet produces, are validated
// as runs and row by row, and the two reports must be byte-identical. The
// fleet's full sweep also goes by class against one without classes (see
// checkFullSweepClasses), and the fleet then takes random scoped flips
// through a synth refreshed from the journal (see checkScopedFlips).
func FuzzRunsDifferential(f *testing.F) {
	for _, seed := range runsSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runsDifferential(t, data) })
}

// runsSeeds are FuzzRunsDifferential's committed seeds. The last builds
// three clusters of four ToRs over two planes and flips a ToR–leaf link, so
// its scoped check hands class verdicts to the ToRs and leaves of the other
// clusters, and its full sweep to the ToRs of every cluster
// (TestRunsSeedsTakeMemberPath).
var runsSeeds = [][]byte{
	{},
	{1, 2, 1, 1, 0, 1, 3, 5, 7, 2, 9, 1, 0, 4, 2, 3, 5, 1, 0, 2, 2, 7, 3, 1},
	{2, 3, 2, 1, 1, 2, 6, 0, 0, 1, 3, 1, 4, 2, 2, 0, 17, 3, 3, 9, 4, 5, 0, 5, 1, 2, 1, 0, 3, 2, 200, 6, 1},
	{1, 2, 3, 1, 1, 0, 175, 189, 109, 220, 8, 15, 29, 253},
}

// runsDifferential is one FuzzRunsDifferential input, returning how many
// devices its full sweep and its scoped checks handed a class verdict.
func runsDifferential(t *testing.T, data []byte) (full, scoped int) {
	r := &fuzzBytes{data: data}
	rs := 1 + r.intn(2)
	topo, err := topology.New(topology.Params{
		Clusters: 1 + r.intn(3), ToRsPerCluster: 1 + r.intn(4), LeavesPerCluster: 1 + r.intn(3),
		SpinesPerPlane: 1 + r.intn(2), RegionalSpines: rs, RSLinksPerSpine: rs,
		PrefixesPerToR: 1 + r.intn(2),
	})
	if err != nil {
		t.Skip(err)
	}
	facts := metadata.FromTopology(topo)
	for k := r.intn(5); k > 0; k-- {
		id := topology.LinkID(r.intn(len(topo.Links)))
		if r.intn(2) == 0 {
			topo.SetLinkUp(id, false)
		} else {
			topo.SetSessionUp(id, false)
		}
	}
	synth := bgp.NewSynth(topo, nil)
	exact := r.intn(2) == 1
	checkRunsAgainstRows(t, facts, synth, exact)
	checkRunsAgainstRows(t, facts, editRuns(topo, synth, r), exact)
	full = checkFullSweepClasses(t, topo, facts, synth, exact)
	return full, checkScopedFlips(t, topo, facts, r, exact)
}

// TestRunsSeedsTakeMemberPath: FuzzRunsDifferential's committed seeds, and
// so its CI run, reach the full sweep's and the scoped check's member
// paths — a device taking its class representative's verdict — at least
// once each.
func TestRunsSeedsTakeMemberPath(t *testing.T) {
	full, scoped := 0, 0
	for i, seed := range runsSeeds {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			f, s := runsDifferential(t, seed)
			full, scoped = full+f, scoped+s
		})
	}
	if full == 0 || scoped == 0 {
		t.Fatalf("the seeds' full sweeps handed %d devices their class's verdict and their scoped checks %d: want some of each", full, scoped)
	}
	t.Logf("%d devices took a class verdict in a full sweep, %d in a scoped check", full, scoped)
}

// runsOnly hides a source's classes but not its runs: every device of a
// sweep is merged on its own.
type runsOnly struct{ RunSource }

// homePulls counts the pulls of a synthesizer's runs that ask for less
// than the whole prefix list: a full check's class member pulls its home
// alone.
type homePulls struct {
	*bgp.Synth
	n int
}

func (h *homePulls) TableRuns(d topology.DeviceID, lo, hi int, buf fib.RunTable) fib.RunTable {
	if hi-lo < len(h.RunPrefixes()) {
		h.n++
	}
	return h.Synth.TableRuns(d, lo, hi, buf)
}

// checkFullSweepClasses is the full sweep's class leg: the devices synth
// puts in one class for a full check must agree on everything their
// verdicts read around their home (classcheck.Check's full-check mode, by a
// fresh synthesis), and a sweep that hands out class verdicts must render
// the bytes of one through a source without classes. It returns how many
// devices took a class verdict.
func checkFullSweepClasses(t *testing.T, topo *topology.Topology, facts *metadata.Facts, synth *bgp.Synth, exact bool) (members int) {
	t.Helper()
	all := delta.NewSet()
	all.MarkFull()
	if _, _, err := classcheck.Check(topo, synth, bgp.NewSynth(topo, nil), contracts.NewGenerator(facts), all); err != nil {
		t.Fatalf("full-check class soundness: %v", err)
	}
	v := Validator{Checker: TrieChecker{Exact: exact}, Workers: 1}
	src := &homePulls{Synth: synth}
	got, err := v.ValidateAll(facts, src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := v.ValidateAll(facts, runsOnly{synth})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := renderRunsReport(got), renderRunsReport(want); !bytes.Equal(g, w) {
		t.Fatalf("class-collapsed full sweep diverges from one without classes (exact=%v)\n--- classes ---\n%s--- none ---\n%s", exact, g, w)
	}
	return src.n
}

// rowQueries hides a source's runs but answers row queries: ValidateScoped
// re-checks a row-scoped device on the rows the scope names.
type rowQueries struct{ RowSource }

// checkScopedFlips drives the serving plane's path: random link and session
// flips, each followed by a journal-driven refresh of one synth and a
// scoped re-check. After every flip its runs must equal freshly
// synthesized ones, the devices the synth puts in one class
// for their scope must agree on everything their verdicts read
// (classcheck.Check), and the scoped runs re-check, the scoped row
// re-check and a from-scratch row sweep must render the same bytes. It
// returns how many devices the runs re-checks handed a class verdict.
func checkScopedFlips(t *testing.T, topo *topology.Topology, facts *metadata.Facts, r *fuzzBytes, exact bool) (members int) {
	t.Helper()
	synth := bgp.NewSynth(topo, nil)
	gen := contracts.NewGenerator(facts)
	gen.EnableMemo()
	v := Validator{Checker: TrieChecker{Exact: exact}, Workers: 1, Metrics: NewMetrics(obs.NewRegistry())}
	prevRuns, err := v.ValidateAll(facts, synth)
	if err != nil {
		t.Fatal(err)
	}
	prevRows := prevRuns
	for k := 1 + r.intn(4); k > 0; k-- {
		since := topo.Generation()
		id := topology.LinkID(r.intn(len(topo.Links)))
		if l := topo.Link(id); r.intn(2) == 0 {
			topo.SetLinkUp(id, !l.Up)
		} else {
			topo.SetSessionUp(id, !l.SessionUp)
		}
		changes, ok := topo.ChangesSince(since)
		if !ok {
			t.Fatal("journal truncated")
		}
		ds := delta.Compute(topo, changes, delta.Options{})
		synth.RefreshDelta()
		fresh := bgp.NewSynth(topo, nil)
		for i := range topo.Devices {
			d := topo.Devices[i].ID
			if got, want := allRuns(synth, d), allRuns(fresh, d); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("device %d: runs diverge from a fresh synthesis\n got %v\nwant %v", d, got, want)
			}
		}
		if _, _, err := classcheck.Check(topo, synth, fresh, gen, ds); err != nil {
			t.Fatalf("class soundness: %v", err)
		}
		dirty, merged := v.Metrics.dirty.Sum(), v.Metrics.merged.Sum()
		gotRuns, err := v.ValidateScoped(prevRuns, facts, gen, synth, ds)
		if err != nil {
			t.Fatal(err)
		}
		members += int((v.Metrics.dirty.Sum() - dirty) - (v.Metrics.merged.Sum() - merged))
		gotRows, err := v.ValidateScoped(prevRows, facts, gen, rowQueries{synth}, ds)
		if err != nil {
			t.Fatal(err)
		}
		want, err := v.ValidateAll(facts, plainSource{fresh})
		if err != nil {
			t.Fatal(err)
		}
		w := renderRunsReport(want)
		if g := renderRunsReport(gotRuns); !bytes.Equal(g, w) {
			t.Fatalf("scoped runs re-check diverges from a full sweep (exact=%v)\n--- runs ---\n%s--- full ---\n%s", exact, g, w)
		}
		if g := renderRunsReport(gotRows); !bytes.Equal(g, w) {
			t.Fatalf("scoped row re-check diverges from a full sweep (exact=%v)\n--- rows ---\n%s--- full ---\n%s", exact, g, w)
		}
		prevRuns, prevRows = gotRuns, gotRows
	}
	return members
}

// TestRunsPathDecidesCleanRunsOnce pins that a synthesized fleet is
// checked as runs — the healthy fleet without a single expanded segment,
// a faulted one expanding only around its faults — and reads the same as
// the row merge-join either way.
func TestRunsPathDecidesCleanRunsOnce(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	facts := metadata.FromTopology(topo)
	clean, expanded := checkRunsAgainstRows(t, facts, bgp.NewSynth(topo, nil), false)
	if clean == 0 || expanded != 0 {
		t.Fatalf("healthy fleet: %d clean, %d expanded segments; want some clean and none expanded", clean, expanded)
	}
	topo.FailLink(topo.ClusterToRs(0)[0], topo.ClusterLeaves(0)[0])
	clean, expanded = checkRunsAgainstRows(t, facts, bgp.NewSynth(topo, nil), false)
	if clean == 0 || expanded == 0 {
		t.Fatalf("faulted fleet: %d clean, %d expanded segments; want both", clean, expanded)
	}
}

// TestRunsNeedTheTrieAndAFlatPlan pins when a sweep takes the runs path:
// the default trie checker over a source that offers runs on the
// generator's own flat prefix list — a synthesizer, not a source without
// runs, not another checker.
func TestRunsNeedTheTrieAndAFlatPlan(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	facts := metadata.FromTopology(topo)
	gen := (&Validator{}).gen(facts)
	for _, tc := range []struct {
		name string
		v    Validator
		src  fib.Source
		runs bool
	}{
		{"synth", Validator{}, bgp.NewSynth(topo, nil), true},
		{"exact trie", Validator{Checker: TrieChecker{Exact: true}}, bgp.NewSynth(topo, nil), true},
		{"rows only", Validator{}, plainSource{bgp.NewSynth(topo, nil)}, false},
		{"smt", Validator{Checker: SMTChecker{}}, bgp.NewSynth(topo, nil), false},
	} {
		if got := tc.v.newSweep(facts, gen, tc.src, false).runs != nil; got != tc.runs {
			t.Errorf("%s: runs path %v, want %v", tc.name, got, tc.runs)
		}
	}
}
