package dcvalidate

import (
	"runtime"
	"testing"

	"dcvalidate/internal/delta"
	"dcvalidate/internal/experiments"
)

// A ToR–leaf link flip on a warmed 2008-device datacenter, followed by a
// query on the leaf, is the operator's event end to end: the journal, the
// blast radius (one device whole, ~1700 scoped to one row), the refresh of
// the synthesis state and the scoped re-check, once per class of devices.
// BenchmarkLinkFlip times it with -benchmem; TestLinkFlipAllocCeiling locks
// its allocations.

// linkFlipper builds a datacenter of about n devices, warms it with a cold
// query and returns it with op, which fails a link of the first cluster's
// plane-0 leaf — to the first ToR, or with leafSpine to the first spine —
// on even i and restores it on odd i, then asks for the leaf's verdict.
func linkFlipper(tb testing.TB, n int, leafSpine bool) (*Datacenter, func(i int)) {
	tb.Helper()
	dc, err := NewDatacenter(experiments.SizedParams("flip", n))
	if err != nil {
		tb.Fatal(err)
	}
	leafID := dc.Topo.ClusterLeaves(0)[0]
	a, leaf := dc.Topo.Device(dc.Topo.ToRs()[0]).Name, dc.Topo.Device(leafID).Name
	if leafSpine {
		a = dc.Topo.Device(dc.Topo.Spines()[0]).Name
	}
	if _, err := dc.QueryDevice(leaf); err != nil {
		tb.Fatal(err)
	}
	return dc, func(i int) {
		flip := dc.FailLink
		if i%2 == 1 {
			flip = dc.RestoreLink
		}
		if err := flip(a, leaf); err != nil {
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
	_, op := linkFlipper(b, 2008, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

// flipAllocs returns the mallocs of one flip plus its query, after a few
// to warm worker buffers and memoized contracts, and the devices a flip
// dirties.
func flipAllocs(t *testing.T, n int, leafSpine bool) (allocs float64, dirty int) {
	dc, op := linkFlipper(t, n, leafSpine)
	i := 0
	for ; i < 4; i++ {
		op(i)
	}
	gen := dc.Topo.Generation()
	op(i)
	i++
	dirty = delta.Since(dc.Topo, gen, delta.Options{}).Count()
	return testing.AllocsPerRun(10, func() {
		op(i)
		i++
	}), dirty
}

// TestLinkFlipAllocCeiling: one ToR–leaf flip plus its query makes ~165
// mallocs. Of the ~1690 devices it dirties, the check merges ~95 — one ToR
// per cluster, one leaf per plane and worker, the devices no class covers —
// each deriving its runs over its scope alone, and the rest take their
// class's verdict unpulled. History: ~241 while a table cache kept each
// device's runs and patched them; ~1.91 k before the dirty set was checked
// once per class of devices; ~1.92 k
// before the synthesis state was kept up to date from the journal instead
// of rebuilt per event; ~6.96 k before patches were left pending for the
// scoped check to apply, runs read in place, hop sets shared between
// devices and the blast radius made dense; ~23.7 k before the sweep
// checked devices on an index-addressed pool. The ceiling is 1.5× 241.
func TestLinkFlipAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2008-device datacenter")
	}
	allocs, _ := flipAllocs(t, 2008, false)
	t.Logf("%.0f mallocs per flip + query", allocs)
	if allocs > 360 {
		t.Errorf("a flip + query makes %.0f mallocs, ceiling 360", allocs)
	}
}

// TestLeafSpineFlipAllocsScaleWithDirty is the O(dirty devices) claim as a
// test. A leaf–spine flip dirties 15 devices at 520 devices and 46 at 2008
// — the leaf whole, the rest in one cluster's rows — while the fleet grows
// by ~1490 devices. A device the check pulls owes at most one malloc, for
// the runs it derives; a device that takes its class's verdict is not
// pulled and owes none. So from the
// one fleet to the other a flip plus its query may add at most 1.25 mallocs
// per extra dirty device and none per extra clean one: work that walks or
// hashes the fleet, or allocates per device beyond the splice, fails it.
func TestLeafSpineFlipAllocsScaleWithDirty(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2008-device datacenter")
	}
	small, smallDirty := flipAllocs(t, 520, true)
	large, largeDirty := flipAllocs(t, 2008, true)
	t.Logf("mallocs per leaf–spine flip + query: %.0f at 520 devices (%d dirty), %.0f at 2008 (%d dirty)",
		small, smallDirty, large, largeDirty)
	if largeDirty <= smallDirty {
		t.Fatalf("%d dirty devices at 2008, %d at 520: the larger fleet must dirty more", largeDirty, smallDirty)
	}
	if per := (large - small) / float64(largeDirty-smallDirty); per > 1.25 {
		t.Errorf("a leaf–spine flip + query adds %.2f mallocs per extra dirty device from 520 to 2008 devices, ceiling 1.25", per)
	}
}

// TestFirstReachAfterWriteAllocCeiling: on a warmed 520-device datacenter,
// the first /reach after a link flip — the query that brings the synthesis
// state up to date and walks the forwarding cone over the runs it derives
// hop by hop — allocates at most 64 KB (~6 KB and ~28 mallocs), and
// answers at the flip's generation. It read ~33 KB while a table cache
// kept runs and the refresh recomputed the window's blast radius, and
// ~8.9 MB and ~1670 mallocs when the query copied every table into a
// global snapshot on the first read after each write.
func TestFirstReachAfterWriteAllocCeiling(t *testing.T) {
	dc, err := NewDatacenter(experiments.SizedParams("reach", 520))
	if err != nil {
		t.Fatal(err)
	}
	tors := dc.Topo.ToRs()
	src, dst := dc.Topo.Device(tors[0]).Name, dc.Topo.Device(tors[len(tors)-1]).Name
	leaf := dc.Topo.Device(dc.Topo.ClusterLeaves(0)[0]).Name
	ends := []string{src, dc.Topo.Device(dc.Topo.Spines()[0]).Name}
	if _, err := dc.QueryDevice(leaf); err != nil {
		t.Fatal(err)
	}
	const flips = 12
	var bytes, mallocs uint64
	for i := range flips + 2 {
		flip := dc.FailLink
		if i%4 >= 2 {
			flip = dc.RestoreLink
		}
		if err := flip(ends[i%2], leaf); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ans, err := dc.QueryReach(src, dst)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Cached || ans.Generation != dc.Topo.Generation() || !ans.Reaches {
			t.Fatalf("flip %d: cached=%v generation %d of %d reaches=%v, want a fresh reaching answer",
				i, ans.Cached, ans.Generation, dc.Topo.Generation(), ans.Reaches)
		}
		if i >= 2 { // the first two warm the pools the walk draws on
			bytes += after.TotalAlloc - before.TotalAlloc
			mallocs += after.Mallocs - before.Mallocs
		}
	}
	kb := float64(bytes) / flips / 1024
	t.Logf("first /reach after a write: %.1f KB, %d mallocs", kb, mallocs/flips)
	if kb > 64 {
		t.Errorf("the first /reach after a write allocates %.1f KB, ceiling 64 KB", kb)
	}
}
