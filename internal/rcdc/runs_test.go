package rcdc

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"dcvalidate/internal/bgp"
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

func (e *editedRuns) TableRuns(d topology.DeviceID, buf []fib.Run) fib.RunTable {
	rt := e.tables[d]
	rt.Runs = append(buf[:0], rt.Runs...)
	return rt
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
		rt := synth.TableRuns(d, nil)
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
// fleet then takes random scoped flips through a table-cached synth (see
// checkScopedFlips).
func FuzzRunsDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 1, 1, 0, 1, 3, 5, 7, 2, 9, 1, 0, 4, 2, 3, 5, 1, 0, 2, 2, 7, 3, 1})
	f.Add([]byte{2, 3, 2, 1, 1, 2, 6, 0, 0, 1, 3, 1, 4, 2, 2, 0, 17, 3, 3, 9, 4, 5, 0, 5, 1, 2, 1, 0, 3, 2, 200, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
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
		checkScopedFlips(t, topo, facts, r, exact)
	})
}

// rowQueries hides a source's runs but answers row queries: ValidateScoped
// re-checks a row-scoped device on the rows the scope names.
type rowQueries struct{ RowSource }

// checkScopedFlips drives the serving plane's path: random link and session
// flips, each followed by a journal-driven refresh of a table-cached synth
// and a scoped re-check. After every flip the patched cached runs must
// equal freshly synthesized ones, and the scoped runs re-check, the scoped
// row re-check and a from-scratch row sweep must render the same bytes.
func checkScopedFlips(t *testing.T, topo *topology.Topology, facts *metadata.Facts, r *fuzzBytes, exact bool) {
	t.Helper()
	cached := bgp.NewSynth(topo, nil)
	cached.EnableTableCache()
	gen := contracts.NewGenerator(facts)
	gen.EnableMemo()
	v := Validator{Checker: TrieChecker{Exact: exact}, Workers: 1}
	prevRuns, err := v.ValidateAll(facts, cached)
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
		cached.RefreshDelta(ds, since)
		fresh := bgp.NewSynth(topo, nil)
		for i := range topo.Devices {
			d := topo.Devices[i].ID
			if got, want := cached.TableRuns(d, nil), fresh.TableRuns(d, nil); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("device %d: patched runs diverge from a fresh synthesis\n got %v\nwant %v", d, got, want)
			}
		}
		gotRuns, err := v.ValidateScoped(prevRuns, facts, gen, cached, ds)
		if err != nil {
			t.Fatal(err)
		}
		gotRows, err := v.ValidateScoped(prevRows, facts, gen, rowQueries{cached}, ds)
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
// generator's own flat prefix list — a synthesizer with or without its
// table cache, not a source without runs, not another checker.
func TestRunsNeedTheTrieAndAFlatPlan(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	facts := metadata.FromTopology(topo)
	gen := (&Validator{}).gen(facts)
	cached := bgp.NewSynth(topo, nil)
	cached.EnableTableCache()
	for _, tc := range []struct {
		name string
		v    Validator
		src  fib.Source
		runs bool
	}{
		{"synth", Validator{}, bgp.NewSynth(topo, nil), true},
		{"exact trie", Validator{Checker: TrieChecker{Exact: true}}, bgp.NewSynth(topo, nil), true},
		{"cached synth", Validator{}, cached, true},
		{"rows only", Validator{}, plainSource{bgp.NewSynth(topo, nil)}, false},
		{"smt", Validator{Checker: SMTChecker{}}, bgp.NewSynth(topo, nil), false},
	} {
		if got := tc.v.newSweep(facts, gen, tc.src, false).runs != nil; got != tc.runs {
			t.Errorf("%s: runs path %v, want %v", tc.name, got, tc.runs)
		}
	}
}
