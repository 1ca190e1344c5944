package dcvalidate

import (
	"testing"

	"dcvalidate/internal/experiments"
)

// A ToR–leaf link flip on a warmed 2008-device datacenter, followed by a
// query on the leaf, is the operator's event end to end: the journal, the
// blast radius (one device whole, ~1700 scoped to one row), the table
// cache's run patch and the scoped re-check. BenchmarkLinkFlip times it
// with -benchmem; TestLinkFlipAllocCeiling locks its allocations.

// linkFlipper builds the datacenter, warms it with a cold query and returns
// op, which fails the link on even i and restores it on odd i, then asks
// for the leaf's verdict.
func linkFlipper(tb testing.TB) (op func(i int)) {
	tb.Helper()
	dc, err := NewDatacenter(experiments.SizedParams("flip", 2008))
	if err != nil {
		tb.Fatal(err)
	}
	tor, leaf := dc.Topo.Device(dc.Topo.ToRs()[0]).Name, dc.Topo.Device(dc.Topo.ClusterLeaves(0)[0]).Name
	if _, err := dc.QueryDevice(leaf); err != nil {
		tb.Fatal(err)
	}
	return func(i int) {
		flip := dc.FailLink
		if i%2 == 1 {
			flip = dc.RestoreLink
		}
		if err := flip(tor, leaf); err != nil {
			tb.Fatal(err)
		}
		ans, err := dc.QueryDevice(leaf)
		if err != nil {
			tb.Fatal(err)
		}
		if ans.Cached || ans.Conformant != (i%2 == 1) {
			tb.Fatalf("flip %d: cached=%v conformant=%v, want a fresh verdict", i, ans.Cached, ans.Conformant)
		}
	}
}

func BenchmarkLinkFlip(b *testing.B) {
	op := linkFlipper(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

// TestLinkFlipAllocCeiling: one flip plus its query made ~10.4 k mallocs
// when written (~23.7 k before the sweep checked devices on an
// index-addressed pool, patched runs on it with reused buffers and skipped
// the index of an empty fragment). The ceiling is 1.5× that.
func TestLinkFlipAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2008-device datacenter")
	}
	op := linkFlipper(t)
	i := 0
	for ; i < 4; i++ { // warm worker buffers and memoized contracts
		op(i)
	}
	allocs := testing.AllocsPerRun(10, func() {
		op(i)
		i++
	})
	t.Logf("%.0f mallocs per flip + query", allocs)
	if allocs > 15600 {
		t.Errorf("a flip + query makes %.0f mallocs, ceiling 15600", allocs)
	}
}
