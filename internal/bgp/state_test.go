package bgp

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dcvalidate/internal/topology"
)

// stateMatchesFresh compares the synthesis state s maintains with what a
// fresh NewSynth derives from the same topology and configuration: every
// prefix's spineHas row, every ToR's direct mask, the boundaries of
// classRuns and blocks (class IDs are s's own; the rows they stand for
// must agree), the default-route flags and the leaves' spine sets. It
// also checks the class table's own bookkeeping: reference counts, the
// live count and the index.
func stateMatchesFresh(s *Synth) error {
	f := NewSynth(s.topo, s.cfg)
	for pi := range s.prefixes {
		if got, want := s.spineHas(pi), f.spineHas(pi); !slices.Equal(got, want) {
			return fmt.Errorf("prefix %d: spineHas %v, fresh %v", pi, got, want)
		}
	}
	for _, tor := range s.topo.ToRs() {
		if got, want := s.mask(tor), f.mask(tor); !slices.Equal(got, want) {
			return fmt.Errorf("ToR %s: direct mask %v, fresh %v", s.topo.Device(tor).Name, got, want)
		}
	}
	cuts := func(x *Synth, bs []block) string {
		out := ""
		for _, b := range bs {
			out += fmt.Sprintf("[%d,%d c%d %v) ", b.lo, b.hi, b.cluster, x.classes[b.class])
		}
		return out
	}
	if got, want := cuts(s, s.classRuns), cuts(f, f.classRuns); got != want {
		return fmt.Errorf("classRuns\n got %s\nwant %s", got, want)
	}
	if got, want := cuts(s, s.blocks), cuts(f, f.blocks); got != want {
		return fmt.Errorf("blocks\n got %s\nwant %s", got, want)
	}
	for _, b := range s.blocks {
		if got, want := s.classes[b.class], s.spineHas(b.lo); !slices.Equal(got, want) {
			return fmt.Errorf("block [%d,%d) has class row %v, its first prefix %v", b.lo, b.hi, got, want)
		}
	}
	if !slices.Equal(s.spineHasDefault, f.spineHasDefault) {
		return fmt.Errorf("spineHasDefault %v, fresh %v", s.spineHasDefault, f.spineHasDefault)
	}
	if !slices.Equal(s.leafHasDefault, f.leafHasDefault) {
		return fmt.Errorf("leafHasDefault %v, fresh %v", s.leafHasDefault, f.leafHasDefault)
	}
	for _, leaf := range s.topo.Leaves() {
		if got, want := s.leafSpines[leaf], f.leafSpines[leaf]; !slices.Equal(got, want) {
			return fmt.Errorf("leaf %s: spines %v, fresh %v", s.topo.Device(leaf).Name, got, want)
		}
	}
	refs := make([]int32, len(s.classes))
	for _, tor := range s.topo.ToRs() {
		refs[s.torClass[tor]]++
	}
	live := 0
	for c, n := range refs {
		if n != s.classRefs[c] {
			return fmt.Errorf("class %d: %d references counted, %d held", c, s.classRefs[c], n)
		}
		if n > 0 {
			live++
		}
		if _, got, ok := s.find(s.classes[c]); !ok || int(got) != c {
			return fmt.Errorf("class %d: its row is not indexed to it", c)
		}
	}
	if live != s.classLive || len(s.classIdx) != len(s.classes) {
		return fmt.Errorf("%d live classes counted, %d held; %d indexed of %d", s.classLive, live, len(s.classIdx), len(s.classes))
	}
	return nil
}

// journaledFlip flips, through the journal, one random link or session of
// a tier, named by the lower role of its ends: 0 ToR–leaf, 1 leaf–spine,
// 2 spine–regional-spine.
func journaledFlip(topo *topology.Topology, rng *rand.Rand, tier int) {
	var lid topology.LinkID
	for {
		lid = topology.LinkID(rng.Intn(len(topo.Links)))
		l := topo.Link(lid)
		if int(min(topo.Device(l.A).Role, topo.Device(l.B).Role)) == tier {
			break
		}
	}
	l := topo.Link(lid)
	if rng.Intn(2) == 0 {
		topo.SetLinkUp(lid, !l.Up)
	} else {
		topo.SetSessionUp(lid, !l.SessionUp)
	}
}

// FuzzSynthStateMatchesFresh drives a synth through random sequences of
// journaled ToR–leaf, leaf–spine and spine–regional-spine link and session
// flips, device-level changes and configuration edits — journaled or made
// directly in the map — refreshing from the journal every few steps; after
// each refresh its maintained state must equal a fresh NewSynth's
// (stateMatchesFresh) and every device's runs a fresh synthesis's.
func FuzzSynthStateMatchesFresh(f *testing.F) {
	f.Add(uint32(0), []byte{})
	f.Add(uint32(3|5<<2|2<<5|1<<7), []byte{0, 1, 0, 2, 1, 3, 8, 2, 5, 0, 0, 9, 1, 1, 2})
	f.Add(uint32(2|3<<2|2<<5|1<<7|1<<9), []byte{1, 0, 1, 4, 6, 2, 1, 3, 7, 5, 0, 0, 2, 2, 3, 0, 8, 7, 0, 1, 1})
	f.Add(uint32(1|2<<2|1<<5), []byte{0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, shape uint32, ops []byte) {
		p := topology.Params{
			Name:             "fuzz",
			Clusters:         1 + int(shape%4),
			ToRsPerCluster:   1 + int(shape>>2%8)%6,
			LeavesPerCluster: 1 + int(shape>>5%4),
			SpinesPerPlane:   1 + int(shape>>7%2),
			RegionalSpines:   2,
			RSLinksPerSpine:  1 + int(shape>>8%2),
			PrefixesPerToR:   1 + int(shape>>9%2),
		}
		topo := topology.MustNew(p)
		cfg := map[topology.DeviceID]*DeviceConfig{}
		s := NewSynth(topo, cfg)
		rng := rand.New(rand.NewSource(int64(shape)))
		for i, op := range ops {
			if i >= 96 {
				break
			}
			switch op % 9 {
			case 0, 1, 2:
				journaledFlip(topo, rng, int(op%9))
			case 3, 4:
				journaledFlip(topo, rng, int(op%3))
				journaledFlip(topo, rng, int(op/9%3))
			case 5:
				topo.NoteDeviceChanged(topology.DeviceID(rng.Intn(len(topo.Devices))))
			case 6:
				// A configuration edit: the engine journals it as a
				// device-level change, a direct map edit leaves no trace.
				d := topology.DeviceID(rng.Intn(len(topo.Devices)))
				switch op / 9 % 4 {
				case 0:
					delete(cfg, d)
				case 1:
					cfg[d] = &DeviceConfig{MaxECMPPaths: 1}
				case 2:
					cfg[d] = &DeviceConfig{RejectDefaultIn: true}
				case 3:
					cfg[d] = &DeviceConfig{SessionsDisabled: true}
				}
				if op/36%2 == 0 {
					topo.NoteDeviceChanged(d)
				}
			case 7:
				clear(cfg)
				topo.NoteDeviceChanged(0)
			}
			if op%2 == 1 || i == len(ops)-1 {
				s.RefreshDelta()
				if err := stateMatchesFresh(s); err != nil {
					t.Fatalf("after op %d (%d): %v", i, op, err)
				}
				fresh := NewSynth(topo, cfg)
				for id := 0; id < len(topo.Devices); id++ {
					d := topology.DeviceID(id)
					if got, want := fmt.Sprint(allRuns(s, d)), fmt.Sprint(allRuns(fresh, d)); got != want {
						t.Fatalf("after op %d: device %s: runs\n got %s\nwant %s", i, topo.Device(d).Name, got, want)
					}
				}
			}
		}
	})
}

// TestSynthClassTableBounded: over 5 000 random journaled flips on a small
// fabric, healing the oldest once three faults are outstanding, the class
// table never holds more than 2 × the live distinct classes + classSlack
// entries, where live is counted afresh from the prefixes' rows. Dead
// classes must be dropped (compact): without that the table keeps every
// class the fabric ever passed through.
func TestSynthClassTableBounded(t *testing.T) {
	topo := topology.MustNew(topology.Params{
		Clusters: 3, ToRsPerCluster: 3, LeavesPerCluster: 3,
		SpinesPerPlane: 2, RegionalSpines: 2, RSLinksPerSpine: 1,
		PrefixesPerToR: 1,
	})
	s := NewSynth(topo, nil)
	rng := rand.New(rand.NewSource(5))
	var faults []topology.LinkID
	peak := 0
	for step := 0; step < 5000; step++ {
		if len(faults) == 3 {
			topo.SetLinkUp(faults[0], true)
			faults = faults[1:]
		}
		lid := topology.LinkID(rng.Intn(len(topo.Links) - len(topo.Spines())*topo.Params.RSLinksPerSpine))
		if topo.Link(lid).Up {
			topo.SetLinkUp(lid, false)
			faults = append(faults, lid)
		}
		s.RefreshDelta()
		rows := map[string]bool{}
		for pi := range s.prefixes {
			rows[fmt.Sprint(s.spineHas(pi))] = true
		}
		peak = max(peak, len(rows))
		if len(s.classes) > 2*len(rows)+classSlack {
			t.Fatalf("step %d: %d classes held for %d live ones", step, len(s.classes), len(rows))
		}
	}
	if err := stateMatchesFresh(s); err != nil {
		t.Fatal(err)
	}
	if peak < 3 {
		t.Fatalf("at most %d live classes at once: the faults exercised nothing", peak)
	}
}

// TestRefreshBytesIndependentOfFleet is the byte gate on a ToR–leaf flip's
// refresh: the bytes RefreshDelta allocates for one flip on a 2008-device
// fleet may exceed those on a 520-device fleet by at most 1 KB. Work sized by the fleet — a slice per device or per
// prefix, a rebuilt index — fails it.
func TestRefreshBytesIndependentOfFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2008-device datacenter")
	}
	small, large := refreshBytes(t, 520), refreshBytes(t, 2008)
	t.Logf("bytes per ToR–leaf flip refresh: %d at 520 devices, %d at 2008", small, large)
	if large > small+1024 {
		t.Errorf("a ToR–leaf flip's refresh allocates %d bytes at 2008 devices, %d at 520: over the 1 KB allowance", large, small)
	}
}

// refreshBytes returns the fewest bytes RefreshDelta allocated over a few
// ToR–leaf flips on a fleet of about n devices with the benchmarks' shape.
func refreshBytes(t *testing.T, n int) uint64 {
	p := topology.Params{
		ToRsPerCluster: 40, LeavesPerCluster: 8, SpinesPerPlane: 4,
		RegionalSpines: 8, RSLinksPerSpine: 4, PrefixesPerToR: 1,
	}
	p.Clusters = (n - 40 + 47) / 48
	topo := topology.MustNew(p)
	s := NewSynth(topo, nil)
	tor, leaf := topo.ToRs()[0], topo.ClusterLeaves(0)[0]
	best := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			topo.FailLink(tor, leaf)
		} else {
			topo.RestoreLink(tor, leaf)
		}
		runtime.ReadMemStats(&before)
		s.RefreshDelta()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if err := stateMatchesFresh(s); err != nil {
		t.Fatal(err)
	}
	return best
}
