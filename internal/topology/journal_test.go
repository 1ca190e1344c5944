package topology

import (
	"runtime"
	"testing"
)

func TestChangeJournal(t *testing.T) {
	topo := MustNew(Figure3Params())
	if g := topo.Generation(); g != 0 {
		t.Fatalf("fresh topology generation = %d, want 0", g)
	}
	if cs, ok := topo.ChangesSince(0); !ok || len(cs) != 0 {
		t.Fatalf("ChangesSince(0) on fresh topology = %v, %v", cs, ok)
	}

	tor, leaf := topo.ToRs()[0], topo.ClusterLeaves(0)[0]
	if !topo.FailLink(tor, leaf) {
		t.Fatal("FailLink failed")
	}
	if g := topo.Generation(); g != 1 {
		t.Fatalf("generation after FailLink = %d, want 1", g)
	}
	cs, ok := topo.ChangesSince(0)
	if !ok || len(cs) != 1 {
		t.Fatalf("ChangesSince(0) = %v, %v, want 1 change", cs, ok)
	}
	lk, _ := topo.LinkBetween(tor, leaf)
	if cs[0].Kind != ChangeLinkDown || cs[0].Link != lk.ID || cs[0].Gen != 1 {
		t.Fatalf("change = %+v, want link-down on link %d gen 1", cs[0], lk.ID)
	}

	// Re-failing the same link is a no-op: no journal entry, no gen bump.
	topo.FailLink(tor, leaf)
	if g := topo.Generation(); g != 1 {
		t.Fatalf("generation after no-op FailLink = %d, want 1", g)
	}

	leaf2 := topo.ClusterLeaves(0)[1]
	topo.ShutSession(tor, leaf2)
	if g := topo.Generation(); g != 2 {
		t.Fatalf("generation after ShutSession = %d, want 2", g)
	}
	if cs, _ := topo.ChangesSince(1); len(cs) != 1 || cs[0].Kind != ChangeSessionDown {
		t.Fatalf("ChangesSince(1) = %+v, want one session-down", cs)
	}

	// RestoreAll journals each individual flip: one link up, one session up.
	topo.RestoreAll()
	if g := topo.Generation(); g != 4 {
		t.Fatalf("generation after RestoreAll = %d, want 4", g)
	}
	cs, _ = topo.ChangesSince(2)
	kinds := map[ChangeKind]int{}
	for _, c := range cs {
		kinds[c.Kind]++
	}
	if kinds[ChangeLinkUp] != 1 || kinds[ChangeSessionUp] != 1 {
		t.Fatalf("RestoreAll journaled %+v, want one link-up and one session-up", cs)
	}

	topo.NoteDeviceChanged(tor)
	cs, _ = topo.ChangesSince(4)
	if len(cs) != 1 || cs[0].Kind != ChangeDevice || cs[0].Device != tor || cs[0].Link != -1 {
		t.Fatalf("NoteDeviceChanged journaled %+v", cs)
	}

	// Asking from the current (or a future) generation is an empty, valid
	// window.
	if cs, ok := topo.ChangesSince(topo.Generation()); !ok || len(cs) != 0 {
		t.Fatalf("ChangesSince(current) = %v, %v", cs, ok)
	}

	// Clone starts a fresh journal.
	if c := topo.Clone(); c.Generation() != 0 {
		t.Fatalf("clone generation = %d, want 0", c.Generation())
	}
}

func TestChangeJournalTruncation(t *testing.T) {
	topo := MustNew(Figure3Params())
	lid := topo.Links[0].ID
	for i := 0; i < 2*maxJournal+10; i++ {
		topo.SetLinkUp(lid, i%2 == 0)
	}
	if _, ok := topo.ChangesSince(0); ok {
		t.Fatal("ChangesSince(0) should report truncation after >2×maxJournal changes")
	}
	gen := topo.Generation()
	cs, ok := topo.ChangesSince(gen - 5)
	if !ok || len(cs) != 5 {
		t.Fatalf("ChangesSince(gen-5) = %d changes, %v, want 5, true", len(cs), ok)
	}
	for i, c := range cs {
		if c.Gen != gen-4+uint64(i) {
			t.Fatalf("change %d has gen %d, want %d", i, c.Gen, gen-4+uint64(i))
		}
	}
}

// TestJournalDropIsExact: across the drop that halves a full journal,
// ChangesSince keeps its floor exact — ok for every generation the journal
// still reaches back to, false for every older one — and answers a
// contiguous window whose entries carry the generations after the one
// asked for; a window handed out before the drop reads the same after it.
func TestJournalDropIsExact(t *testing.T) {
	topo := MustNew(Figure3Params())
	lid := topo.Links[0].ID
	flip := func(n int) {
		for i := 0; i < n; i++ {
			topo.SetLinkUp(lid, !topo.Link(lid).Up)
		}
	}
	window := func(gen uint64) ([]Change, bool) {
		t.Helper()
		cs, ok := topo.ChangesSince(gen)
		for i, c := range cs {
			if c.Gen != gen+1+uint64(i) {
				t.Fatalf("ChangesSince(%d): entry %d has generation %d, want %d", gen, i, c.Gen, gen+1+uint64(i))
			}
		}
		if ok && uint64(len(cs)) != topo.Generation()-gen {
			t.Fatalf("ChangesSince(%d) = %d entries at generation %d", gen, len(cs), topo.Generation())
		}
		return cs, ok
	}
	flip(2*maxJournal - 1) // one short of the drop
	held, ok := window(0)
	if !ok {
		t.Fatal("the journal dropped entries before reaching 2 × maxJournal")
	}
	before := append([]Change(nil), held...)
	flip(1) // the drop
	floor := uint64(maxJournal)
	if _, ok := window(floor - 1); ok {
		t.Fatalf("ChangesSince(%d) ok after the drop, want the floor at %d", floor-1, floor)
	}
	if _, ok := window(floor); !ok {
		t.Fatalf("ChangesSince(%d) truncated after the drop, want it kept", floor)
	}
	flip(maxJournal / 2)
	for _, gen := range []uint64{floor, floor + 1, topo.Generation() - 1, topo.Generation()} {
		if _, ok := window(gen); !ok {
			t.Fatalf("ChangesSince(%d) truncated after the drop", gen)
		}
	}
	for i := range held {
		if held[i] != before[i] {
			t.Fatalf("entry %d of a window handed out before the drop changed: %+v, was %+v", i, held[i], before[i])
		}
	}
}

// TestJournalWriteBytesFlat: a long-lived topology's writes stay cheap
// once its journal is full — 12 000 flips of one Figure 3 link, three
// times the journal's bound, allocate under 1 KB per flip on average.
func TestJournalWriteBytesFlat(t *testing.T) {
	topo := MustNew(Figure3Params())
	lid := topo.Links[0].ID
	const flips = 12000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < flips; i++ {
		topo.SetLinkUp(lid, !topo.Link(lid).Up)
	}
	runtime.ReadMemStats(&after)
	perFlip := float64(after.TotalAlloc-before.TotalAlloc) / flips
	t.Logf("%.0f bytes per flip over %d flips", perFlip, flips)
	if perFlip >= 1024 {
		t.Errorf("%.0f bytes per flip over %d flips, want under 1 KB", perFlip, flips)
	}
}
