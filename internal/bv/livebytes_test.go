package bv_test

import (
	"runtime"
	"testing"

	"dcvalidate/internal/acl"
	"dcvalidate/internal/bv"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/workload"
)

// encodeFirstApplicable folds a first-applicable policy into one formula
// rule by rule from the last, as secguru's encodePolicy does: every step
// builds a new n-ary Or or And over the formula so far.
func encodeFirstApplicable(c *bv.Ctx, p *acl.Policy) bv.Term {
	src, dst := c.BVVar("srcIp", 32), c.BVVar("dstIp", 32)
	srcPort, dstPort, proto := c.BVVar("srcPort", 16), c.BVVar("dstPort", 16), c.BVVar("protocol", 8)
	f := c.False()
	for i := len(p.Rules) - 1; i >= 0; i-- {
		r := &p.Rules[i]
		var conj []bv.Term
		if !r.Src.IsDefault() {
			rng := ipnet.RangeOf(r.Src)
			conj = append(conj, c.InRange(src, uint64(rng.Lo), uint64(rng.Hi)))
		}
		if !r.Dst.IsDefault() {
			rng := ipnet.RangeOf(r.Dst)
			conj = append(conj, c.InRange(dst, uint64(rng.Lo), uint64(rng.Hi)))
		}
		if !r.SrcPorts.IsAny() {
			conj = append(conj, c.InRange(srcPort, uint64(r.SrcPorts.Lo), uint64(r.SrcPorts.Hi)))
		}
		if !r.DstPorts.IsAny() {
			conj = append(conj, c.InRange(dstPort, uint64(r.DstPorts.Lo), uint64(r.DstPorts.Hi)))
		}
		if !r.Protocol.Any {
			conj = append(conj, c.Eq(proto, c.BVConst(uint64(r.Protocol.Num), 8)))
		}
		if t := c.And(conj...); r.Action == acl.Permit {
			f = c.Or(t, f)
		} else {
			f = c.And(c.Not(t), f)
		}
	}
	return f
}

// TestEdgeACLEncodingLiveBytes gates what one context keeps alive after
// encoding the default ~3000-rule Edge ACL: its nodes, their args and the
// intern table. A table keyed by strings built from the args held 28.9 MB
// here; hash-consing by structure holds ~15.3 MB.
func TestEdgeACLEncodingLiveBytes(t *testing.T) {
	pol := workload.GenerateLegacyEdgeACL(workload.DefaultEdgeACLParams())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := bv.NewCtx()
	encodeFirstApplicable(c, pol)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d rules: %.1f MB live in the context", len(pol.Rules), float64(live)/(1<<20))
	if live > 20<<20 {
		t.Fatalf("context holds %.1f MB after encoding the Edge ACL, ceiling 20 MB", float64(live)/(1<<20))
	}
}
