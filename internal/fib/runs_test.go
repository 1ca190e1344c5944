package fib

import (
	"slices"
	"testing"

	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/topology"
)

// byteReader hands out a fuzz input's bytes, then zeros.
type byteReader []byte

func (r *byteReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// addr draws an address from a small space — 10.0.0.0/20 and a sliver of
// 11.0.0.0/8 — so random prefixes nest, repeat and miss each other.
func (r *byteReader) addr() ipnet.Addr {
	hi, lo := r.next(), r.next()
	if hi&0x80 != 0 {
		return ipnet.Addr(11<<24 | uint32(lo))
	}
	return ipnet.Addr(10<<24 | uint32(hi&0x0f)<<8 | uint32(lo))
}

func (r *byteReader) prefix() ipnet.Prefix {
	switch b := r.next(); {
	case b < 8:
		return ipnet.Prefix{}
	default:
		return ipnet.PrefixFrom(r.addr(), 8+b%25)
	}
}

// runTable decodes a prefix list, then a run table over it: rows (default,
// connected and other routes, in any order and possibly repeated) and
// ascending disjoint runs, each run and row with its own next hops.
func (r *byteReader) runTable() ([]topology.HostedPrefix, RunTable) {
	ps := make([]topology.HostedPrefix, 1+int(r.next()%24))
	for i := range ps {
		ps[i].Prefix = r.prefix()
	}
	hop := topology.DeviceID(0)
	hops := func() []topology.DeviceID {
		hop++
		return []topology.DeviceID{hop, hop + 100}
	}
	rt := RunTable{Device: 7}
	for n := int(r.next() % 5); n > 0; n-- {
		e := Entry{Prefix: r.prefix()}
		if r.next()%3 == 0 {
			e.Connected = true
		} else {
			e.NextHops = hops()
		}
		rt.Rows = append(rt.Rows, e)
	}
	for at := int(r.next() % 4); at < len(ps); {
		hi := min(len(ps), at+1+int(r.next()%5))
		rt.Runs = append(rt.Runs, Run{Lo: at, Hi: hi, NextHops: hops()})
		at = hi + int(r.next()%3)
	}
	return ps, rt
}

// FuzzRunTableLookup: the run table's lookup through a cover finds the
// entry the expanded table's longest-prefix match finds — the same
// prefix, next hops and connected mark, or nothing — for addresses inside
// and outside every prefix, and so does the table cut to the runs the
// cover's span touches.
func FuzzRunTableLookup(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 20, 1, 0, 20, 1, 8, 20, 1, 16, 2, 9, 1, 0, 0, 30, 1, 0, 1, 2, 3, 1, 0})
	f.Add([]byte{12, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 9, 0, 0, 0, 1, 24, 0, 0, 5, 0, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{9, 16, 3, 7, 16, 3, 7, 24, 3, 7, 8, 200, 200, 2, 1, 40, 3, 7, 3, 0, 0, 4, 1, 3, 7, 200, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := byteReader(data)
		ps, rt := r.runTable()
		tbl := rt.Expand(ps)
		var addrs []ipnet.Addr
		for _, hp := range ps {
			addrs = append(addrs, hp.Prefix.First(), hp.Prefix.Last())
		}
		for range 4 {
			addrs = append(addrs, r.addr())
		}
		for _, a := range addrs {
			c := NewCover(ps, a)
			got, ok := rt.Lookup(c)
			want, wok := tbl.Lookup(a)
			if ok != wok || ok && (got.Prefix != want.Prefix || got.Connected != want.Connected || !slices.Equal(got.NextHops, want.NextHops)) {
				t.Fatalf("lookup %v over %v, rows %v, runs %v:\n got %v %v\nwant %v %v", a, ps, rt.Rows, rt.Runs, got, ok, want, wok)
			}
			lo, hi := c.Span()
			cut := rt
			cut.Runs = slices.DeleteFunc(slices.Clone(rt.Runs), func(r Run) bool { return r.Hi <= lo || r.Lo >= hi })
			if cg, cok := cut.Lookup(c); cok != ok || cok && (cg.Prefix != got.Prefix || !slices.Equal(cg.NextHops, got.NextHops)) {
				t.Fatalf("lookup %v over the runs in [%d, %d) = %v %v, over all runs %v %v", a, lo, hi, cg, cok, got, ok)
			}
		}
	})
}
