package experiments

import (
	"fmt"
	"strings"

	"dcvalidate/internal/metadata"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/region"
	"dcvalidate/internal/topology"
)

// E15Region demonstrates the §2.1 inter-datacenter design rule: regional
// spines strip private ASNs when relaying routes between datacenters, and
// without stripping the deliberately reused spine/leaf/ToR ASNs would make
// loop prevention drop every inter-DC route.
func E15Region() Result {
	mk := func(strip bool) (haveRemote, total int, localViolations int) {
		a := topology.Figure3Params()
		a.Name = "dc0"
		b := topology.Figure3Params()
		b.Name = "dc1"
		b.RegionIndex = 1
		r, err := region.New([]topology.Params{a, b})
		if err != nil {
			panic(err)
		}
		r.DisableStripping = !strip
		if err := r.Converge(); err != nil {
			panic(err)
		}
		dc0, dc1 := r.DCs[0].Topo, r.DCs[1].Topo
		for _, hp := range dc0.HostedPrefixes() {
			for _, tor := range dc1.ToRs() {
				total++
				tbl, err := r.Table(1, tor)
				if err != nil {
					panic(err)
				}
				if _, ok := tbl.Get(hp.Prefix); ok {
					haveRemote++
				}
			}
		}
		facts := metadata.FromTopology(dc1)
		v := rcdc.Validator{Workers: 2}
		rep, err := v.ValidateAll(facts, r.Source(1))
		if err != nil {
			panic(err)
		}
		return haveRemote, total, rep.Failures
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %18s %18s\n", "configuration", "remoteRoutes@ToRs", "localViolations")
	h1, t1, v1 := mk(true)
	fmt.Fprintf(&b, "%-22s %11d/%-6d %18d\n", "ASN stripping on", h1, t1, v1)
	h2, t2, v2 := mk(false)
	fmt.Fprintf(&b, "%-22s %11d/%-6d %18d\n", "ASN stripping off", h2, t2, v2)
	return Result{
		ID:    "E15",
		Title: "inter-datacenter routing and private-ASN stripping (§2.1)",
		Table: b.String(),
		Notes: "with stripping every remote prefix reaches every ToR of the other datacenter; without it the reused private ASNs trip loop prevention and zero inter-DC routes survive — the collision the design rule exists to prevent. Local contract validation is clean either way: regional routes fall outside every local contract range",
	}
}
