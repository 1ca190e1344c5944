package rcdc

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/fib"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/topology"
)

func sameContract(a, b *contracts.Contract) bool { return a.Kind == b.Kind && a.Prefix == b.Prefix }

// byContract groups violations under the contract they belong to, keeping
// their order within it.
func byContract(vs []Violation) map[ipnet.Prefix][]Violation {
	out := map[ipnet.Prefix][]Violation{}
	for _, v := range vs {
		key := v.Contract.Prefix // the default contract is the only one at 0.0.0.0/0
		out[key] = append(out[key], v)
	}
	return out
}

// TestTrieCheckerOrderIndependence: the checker's cursor into the sorted
// index is a hint. Whatever order the rows were added in and whatever order
// the contracts arrive in, every contract gets exactly the violations of
// the run with sorted rows and generated contract order.
func TestTrieCheckerOrderIndependence(t *testing.T) {
	p := topology.Figure3Params()
	p.Clusters, p.ToRsPerCluster = 3, 4
	topo := topology.MustNew(p)
	tor := topo.ClusterToRs(0)[0]
	leaves := topo.ClusterLeaves(0)
	topo.FailLink(tor, leaves[0]) // every specific row and the default lose a hop
	tbl, err := bgp.NewSynth(topo, nil).Table(tor)
	if err != nil {
		t.Fatal(err)
	}
	hps := topo.HostedPrefixes()
	spine := []topology.DeviceID{topo.Spines()[0]}
	// Rows the synthesizer never emits: a hijacked half of one range, two
	// halves covering another, an aggregate over several (the only cover
	// of one of them), a host route, and one contract left with no route.
	lo, hi := hps[5].Prefix.Children()
	tbl.Add(fib.Entry{Prefix: ipnet.PrefixFrom(hps[3].Prefix.Addr, hps[3].Prefix.Bits+1), NextHops: spine})
	tbl.Add(fib.Entry{Prefix: lo, NextHops: leaves[1:]})
	tbl.Add(fib.Entry{Prefix: hi, NextHops: spine})
	tbl.Add(fib.Entry{Prefix: ipnet.PrefixFrom(hps[8].Prefix.Addr, hps[8].Prefix.Bits-2), NextHops: spine})
	tbl.Add(fib.Entry{Prefix: ipnet.Prefix{Addr: hps[9].Prefix.Addr + 1, Bits: 32}, NextHops: leaves[1:]})
	tbl.Entries = slices.DeleteFunc(tbl.Entries, func(e fib.Entry) bool {
		return e.Prefix == hps[5].Prefix || e.Prefix == hps[7].Prefix || e.Prefix == hps[10].Prefix
	})
	tbl.Sort()
	dc := contracts.NewGenerator(metadata.FromTopology(topo)).ForDevice(tor)

	rng := rand.New(rand.NewSource(7))
	for _, ck := range []TrieChecker{{}, {Exact: true}} {
		base, err := ck.CheckDevice(tbl, dc, topology.RoleToR)
		if err != nil {
			t.Fatal(err)
		}
		want := byContract(base)
		if len(want) < 5 {
			t.Fatalf("exact=%v: fixture only violates %d contracts: %v", ck.Exact, len(want), base)
		}
		for iter := 0; iter < 50; iter++ {
			rows := fib.NewTable(tor)
			rows.Entries = append(rows.Entries, tbl.Entries...)
			rng.Shuffle(len(rows.Entries), func(i, j int) {
				rows.Entries[i], rows.Entries[j] = rows.Entries[j], rows.Entries[i]
			})
			shuffled := contracts.DeviceContracts{Device: tor, Contracts: append([]contracts.Contract(nil), dc.Contracts...)}
			rng.Shuffle(len(shuffled.Contracts), func(i, j int) {
				shuffled.Contracts[i], shuffled.Contracts[j] = shuffled.Contracts[j], shuffled.Contracts[i]
			})
			got, err := ck.CheckDevice(rows, shuffled, topology.RoleToR)
			if err != nil {
				t.Fatal(err)
			}
			if g := byContract(got); !reflect.DeepEqual(g, want) {
				t.Fatalf("exact=%v iter %d: violations depend on order\n got %v\nwant %v", ck.Exact, iter, got, base)
			}
			// Violations still come out in the order the contracts went in.
			at := 0
			for _, v := range got {
				for at < len(shuffled.Contracts) && !sameContract(&shuffled.Contracts[at], &v.Contract) {
					at++
				}
			}
			if at == len(shuffled.Contracts) {
				t.Fatalf("exact=%v iter %d: violations out of contract order: %v", ck.Exact, iter, got)
			}
		}
	}
}

// BenchmarkCheckDevice times one cold ToR check at the 2008-device size —
// index build included, as in a sweep: healthy (every contract on the fast
// path, in order), all-violating (every uplink but one shut, Exact: every
// contract takes the candidate walk and renders a violation) and shuffled
// (healthy, but the contracts arrive in random order: every one misses the
// cursor and searches).
func BenchmarkCheckDevice(b *testing.B) {
	p := topology.Params{Name: "bench", Clusters: 41, ToRsPerCluster: 40, LeavesPerCluster: 8,
		SpinesPerPlane: 4, RegionalSpines: 8, RSLinksPerSpine: 4, PrefixesPerToR: 1}
	healthy := topology.MustNew(p)
	tor := healthy.ToRs()[0]
	degraded := topology.MustNew(p)
	for _, leaf := range degraded.ClusterLeaves(0)[1:] {
		degraded.FailLink(tor, leaf)
	}
	dc := contracts.NewGenerator(metadata.FromTopology(healthy)).ForDevice(tor)
	shuffled := contracts.DeviceContracts{Device: tor, Contracts: append([]contracts.Contract(nil), dc.Contracts...)}
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled.Contracts), func(i, j int) {
		shuffled.Contracts[i], shuffled.Contracts[j] = shuffled.Contracts[j], shuffled.Contracts[i]
	})
	for _, c := range []struct {
		name       string
		topo       *topology.Topology
		dc         contracts.DeviceContracts
		ck         TrieChecker
		violations int
	}{
		{"healthy", healthy, dc, TrieChecker{}, 0},
		{"all-violating", degraded, dc, TrieChecker{Exact: true}, len(dc.Contracts)},
		{"shuffled", healthy, shuffled, TrieChecker{}, 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			tbl, err := bgp.NewSynth(c.topo, nil).Table(tor)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fresh := &fib.Table{Device: tor, Entries: tbl.Entries} // no index yet
				vs, err := c.ck.CheckDevice(fresh, c.dc, topology.RoleToR)
				if err != nil || len(vs) != c.violations {
					b.Fatal(fmt.Sprint(len(vs), " violations, want ", c.violations, ": ", err))
				}
			}
		})
	}
}
