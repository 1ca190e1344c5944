package conflint

import (
	"strings"
	"testing"

	"dcvalidate/internal/acl"
	"dcvalidate/internal/devconf"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/topology"
)

func fig3Fleet(t *testing.T) (*topology.Topology, map[string]string) {
	t.Helper()
	topo := topology.MustNew(topology.Figure3Params())
	configs, err := devconf.RenderFleet(topo, nil)
	if err != nil {
		t.Fatalf("RenderFleet: %v", err)
	}
	return topo, configs
}

// mutate re-writes one device's configuration through parse → edit →
// canonical Write, the path every seeded misconfiguration takes.
func mutate(t *testing.T, configs map[string]string, host string, fn func(*devconf.Spec)) {
	t.Helper()
	spec, err := devconf.Parse(strings.NewReader(configs[host]))
	if err != nil {
		t.Fatalf("parse %s: %v", host, err)
	}
	fn(spec)
	configs[host] = spec.Text()
}

func mustRule(t *testing.T, line string) acl.Rule {
	t.Helper()
	r, err := acl.ParseIOSRule(strings.Fields(line), 1)
	if err != nil {
		t.Fatalf("rule %q: %v", line, err)
	}
	return r
}

func TestCleanFleetHasNoFindings(t *testing.T) {
	topo, configs := fig3Fleet(t)
	rep, err := Lint(topo, configs)
	if err != nil {
		t.Fatalf("Lint: %v", err)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("clean fleet produced findings:\n%s", rep)
	}
	if rep.String() != "" {
		t.Fatalf("empty report must render empty, got %q", rep.String())
	}
}

// TestSeededMisconfigs drives every analyzer: each case plants one
// misconfiguration class into the clean rendered fleet and expects at
// least one finding from the matching analyzer on the expected device.
func TestSeededMisconfigs(t *testing.T) {
	cases := []struct {
		name     string
		host     string // mutated device
		analyzer string
		onDevice string // where the finding must appear
		contains string
		fn       func(*devconf.Spec)
	}{
		{
			name: "remote-as-mismatch", host: "fig3-c0-t0-0",
			analyzer: "session-symmetry", onDevice: "fig3-c0-t0-0",
			contains: "remote-as",
			fn:       func(s *devconf.Spec) { s.Neighbors[0].RemoteAS++ },
		},
		{
			name: "one-sided-declaration", host: "fig3-c0-t0-0",
			analyzer: "session-symmetry", onDevice: "fig3-c0-t1-0",
			contains: "no matching stanza back",
			fn:       func(s *devconf.Spec) { s.Neighbors = s.Neighbors[1:] },
		},
		{
			name: "asymmetric-shutdown", host: "fig3-c0-t0-0",
			analyzer: "session-symmetry", onDevice: "fig3-c0-t0-0",
			contains: "shut down here but not on",
			fn:       func(s *devconf.Spec) { s.Neighbors[0].Shutdown = true },
		},
		{
			name: "asn-off-plan", host: "fig3-c0-t1-1",
			analyzer: "asn-plan", onDevice: "fig3-c0-t1-1",
			contains: "violates the tier plan",
			fn:       func(s *devconf.Spec) { s.ASN = 65000 },
		},
		{
			name: "asn-public-leak", host: "fig3-c0-t1-1",
			analyzer: "asn-plan", onDevice: "fig3-c0-t1-1",
			contains: "not private",
			fn:       func(s *devconf.Spec) { s.ASN = 3320 },
		},
		{
			name: "route-map-undefined", host: "fig3-c0-t0-1",
			analyzer: "ref-integrity", onDevice: "fig3-c0-t0-1",
			contains: "referenced but not defined",
			fn:       func(s *devconf.Spec) { s.Neighbors[0].RouteMapIn = "NO-SUCH-MAP" },
		},
		{
			name: "route-map-unused", host: "fig3-c0-t0-1",
			analyzer: "ref-integrity", onDevice: "fig3-c0-t0-1",
			contains: "never referenced",
			fn: func(s *devconf.Spec) {
				s.RouteMaps = append(s.RouteMaps, devconf.RouteMap{Name: "STALE", Seq: 10})
			},
		},
		{
			name: "foreign-origination", host: "fig3-c1-t0-0",
			analyzer: "prefix-origin", onDevice: "fig3-c1-t0-0",
			contains: "is hosted by fig3-c0-t0-0",
			fn: func(s *devconf.Spec) {
				// fig3-c0-t0-0 hosts the first VLAN prefix of the region.
				s.Networks = append(s.Networks, ipnet.MustParsePrefix("10.0.0.0/24"))
			},
		},
		{
			name: "missing-origination", host: "fig3-c0-t0-0",
			analyzer: "prefix-origin", onDevice: "fig3-c0-t0-0",
			contains: "has no network stanza",
			fn:       func(s *devconf.Spec) { s.Networks = nil },
		},
		{
			name: "duplicate-network", host: "fig3-c0-t0-0",
			analyzer: "prefix-origin", onDevice: "fig3-c0-t0-0",
			contains: "duplicate network stanza",
			fn:       func(s *devconf.Spec) { s.Networks = append(s.Networks, s.Networks[0]) },
		},
		{
			name: "ecmp-divergence", host: "fig3-c0-t1-2",
			analyzer: "ecmp-consistency", onDevice: "fig3-c0-t1-2",
			contains: "diverges from the leaf tier of cluster 0 consensus",
			fn:       func(s *devconf.Spec) { s.MaxPaths = 1 },
		},
		{
			name: "acl-shadowed-rule", host: "fig3-rs-0",
			analyzer: "acl-shadow", onDevice: "fig3-rs-0",
			contains: "unreachable",
			fn: func(s *devconf.Spec) {
				s.ACLs = append(s.ACLs, devconf.ACL{
					Name: "EDGE-IN",
					Rules: []acl.Rule{
						mustRule(t, "permit tcp 10.0.0.0/8 any eq 443"),
						mustRule(t, "deny tcp 10.0.0.0/8 any eq 443"),
						mustRule(t, "permit ip any any"),
					},
					RulePos: make([]devconf.Pos, 3),
				})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo, configs := fig3Fleet(t)
			mutate(t, configs, tc.host, tc.fn)
			rep, err := Lint(topo, configs)
			if err != nil {
				t.Fatalf("Lint: %v", err)
			}
			for _, f := range rep.Findings {
				if f.Analyzer == tc.analyzer && f.Device == tc.onDevice &&
					strings.Contains(f.Message, tc.contains) {
					if f.Pos.Line == 0 {
						t.Errorf("finding lacks a position: %s", f)
					}
					return
				}
			}
			t.Fatalf("no %s finding on %s containing %q; report:\n%s",
				tc.analyzer, tc.onDevice, tc.contains, rep)
		})
	}
}

// TestReportByteStable lints a multi-bug fleet twice and demands
// byte-identical reports — the determinism contract of every report in
// this codebase.
func TestReportByteStable(t *testing.T) {
	topo, configs := fig3Fleet(t)
	mutate(t, configs, "fig3-c0-t0-0", func(s *devconf.Spec) {
		s.Neighbors[0].RemoteAS++
		s.Networks = nil
	})
	mutate(t, configs, "fig3-c1-t1-3", func(s *devconf.Spec) {
		s.MaxPaths = 2
		s.RouteMaps = append(s.RouteMaps, devconf.RouteMap{Name: "STALE", Seq: 5})
	})
	first, err := Lint(topo, configs)
	if err != nil {
		t.Fatalf("Lint: %v", err)
	}
	if len(first.Findings) == 0 {
		t.Fatal("seeded fleet produced no findings")
	}
	second, err := Lint(topo, configs)
	if err != nil {
		t.Fatalf("Lint: %v", err)
	}
	if first.String() != second.String() {
		t.Fatalf("reports differ between runs:\n--- first\n%s--- second\n%s", first, second)
	}
}

// TestGoldenReport pins the exact diagnostic format on a hand-written
// two-device sub-fleet (lint accepts partial fleets).
func TestGoldenReport(t *testing.T) {
	topo := topology.MustNew(topology.Figure3Params())
	clean, err := devconf.RenderFleet(topo, nil)
	if err != nil {
		t.Fatalf("RenderFleet: %v", err)
	}
	configs := map[string]string{
		"fig3-c0-t0-0": clean["fig3-c0-t0-0"],
	}
	mutate(t, configs, "fig3-c0-t0-0", func(s *devconf.Spec) {
		s.Neighbors[0].RouteMapIn = "MISSING"
	})
	rep, err := Lint(topo, configs)
	if err != nil {
		t.Fatalf("Lint: %v", err)
	}
	want := "fig3-c0-t0-0:6:3: ref-integrity: route-map \"MISSING\" referenced but not defined on this device\n"
	if rep.String() != want {
		t.Fatalf("golden mismatch:\nwant: %q\ngot:  %q\nconfig:\n%s",
			want, rep.String(), configs["fig3-c0-t0-0"])
	}
}

func TestFleetRejectsUnknownAndDuplicateHosts(t *testing.T) {
	topo, configs := fig3Fleet(t)
	bad := map[string]string{"x": "hostname not-a-device\nrouter bgp 1\n!\n"}
	if _, err := NewFleet(topo, bad); err == nil {
		t.Fatal("unknown hostname accepted")
	}
	dup := map[string]string{
		"a": configs["fig3-rs-0"],
		"b": configs["fig3-rs-0"],
	}
	if _, err := NewFleet(topo, dup); err == nil {
		t.Fatal("duplicate hostname accepted")
	}
}
