package rcdc

import (
	"errors"
	"testing"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/topology"
)

type failingSource struct {
	inner fib.Source
	bad   topology.DeviceID
	// badToo, when set, fails every device it reports true for as well.
	badToo func(topology.DeviceID) bool
}

var errPull = errors.New("device unreachable")

func (s failingSource) Table(d topology.DeviceID) (*fib.Table, error) {
	if d == s.bad || s.badToo != nil && s.badToo(d) {
		return nil, errPull
	}
	return s.inner.Table(d)
}

// TestValidateAllPropagatesSourceErrors: every failed pull is in the
// joined error, in device order, so the error text and the partial report
// are the same whatever the worker count.
func TestValidateAllPropagatesSourceErrors(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	facts := metadata.FromTopology(topo)
	src := failingSource{inner: bgp.NewSynth(topo, nil), bad: topo.ToRs()[1],
		badToo: func(d topology.DeviceID) bool { return d%3 == 0 }}
	var want *Report
	var wantErr string
	for _, workers := range []int{1, 2, 8} {
		v := Validator{Workers: workers}
		rep, err := v.ValidateAll(facts, src)
		if err == nil || !errors.Is(err, errPull) {
			t.Fatalf("workers=%d: err = %v, want wrapped errPull", workers, err)
		}
		if want == nil {
			want, wantErr = rep, err.Error()
			continue
		}
		if err.Error() != wantErr {
			t.Fatalf("workers=%d: error text differs from one worker's:\n got %s\nwant %s", workers, err, wantErr)
		}
		reportsEquivalent(t, rep, want)
	}
}

func TestReportAccessors(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	topo.FailLink(topo.ToRs()[0], topo.ClusterLeaves(0)[0])
	facts := metadata.FromTopology(topo)
	v := Validator{Workers: 1}
	rep, err := v.ValidateAll(facts, bgp.NewSynth(topo, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations()) != rep.Failures {
		t.Error("Violations() length != Failures")
	}
	healthy := 0
	for i := range rep.Devices {
		if rep.Devices[i].Healthy() {
			healthy++
		}
	}
	if healthy+4 != len(rep.Devices) {
		t.Errorf("healthy = %d of %d", healthy, len(rep.Devices))
	}
	if rep.Workers != 1 {
		t.Errorf("Workers = %d", rep.Workers)
	}
	if rep.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
}

func TestValidatorDefaultsToTrie(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	facts := metadata.FromTopology(topo)
	v := Validator{} // zero value: trie engine, all CPUs
	rep, err := v.ValidateAll(facts, bgp.NewSynth(topo, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 {
		t.Errorf("failures = %d", rep.Failures)
	}
	if rep.Workers < 1 {
		t.Errorf("workers = %d", rep.Workers)
	}
}

func TestHopsOKSortedEdgeCases(t *testing.T) {
	type ids = []topology.DeviceID
	cases := []struct {
		expected, actual ids
		exact, want      bool
	}{
		{ids{1, 2, 3}, ids{1, 2, 3}, true, true},
		{ids{1, 2, 3}, ids{1, 3}, false, true},  // subset ok
		{ids{1, 2, 3}, ids{1, 3}, true, false},  // exact: missing 2
		{ids{1, 2, 3}, ids{1, 4}, false, false}, // unexpected hop
		{ids{1, 2, 3}, ids{3, 1}, false, false}, // unsorted: defer to general path
		{ids{1, 2, 3}, ids{2, 2}, false, false}, // duplicate: defer
		{ids{1, 2, 3}, ids{}, true, false},      // exact: all missing
		{ids{1, 2, 3}, ids{}, false, true},      // empty subset (caller guards emptiness)
		{ids{}, ids{1}, false, false},           // nothing expected
	}
	for i, c := range cases {
		if got := hopsOKSorted(c.expected, c.actual, c.exact); got != c.want {
			t.Errorf("case %d: hopsOKSorted(%v, %v, %v) = %v, want %v",
				i, c.expected, c.actual, c.exact, got, c.want)
		}
	}
}
