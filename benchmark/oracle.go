package main

import (
	"bytes"
	"fmt"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/engine"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/topology"
)

// The oracle never takes the path under test: the truth for a fleet state
// is a from-scratch rcdc sweep (trie engine, fresh bgp.Synth, no table
// cache, no journal) over a topology the benchmark builds itself and
// brings to that state with direct link writes. It runs outside every
// timed section.

// truthSweep validates a freshly built fleet carrying the given faults.
func truthSweep(p topology.Params, outstanding []event) (*rcdc.Report, error) {
	topo, err := topology.New(p)
	if err != nil {
		return nil, err
	}
	for _, fault := range outstanding {
		directApply(topo, fault)
	}
	v := rcdc.Validator{Workers: 2}
	return v.ValidateAll(metadata.FromTopology(topo), bgp.NewSynth(topo, nil))
}

// renderReport is the byte-identity surface of a report: everything but
// timing and worker counts (the E19 render).
func renderReport(rep *rcdc.Report) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "checked=%d failures=%d\n", rep.Checked, rep.Failures)
	for i := range rep.Devices {
		d := &rep.Devices[i]
		fmt.Fprintf(&buf, "dev=%d name=%s role=%s contracts=%d\n", d.Device, d.Name, d.Role, d.Contracts)
		for _, v := range d.Violations {
			fmt.Fprintf(&buf, "  %s\n", v.String())
		}
	}
	return buf.Bytes()
}

// verdict is the comparable core of a per-device answer, whichever path
// produced it.
type verdict struct {
	device     string
	conformant bool
	contracts  int
	violations []string
}

func (v verdict) equal(o verdict) bool {
	if v.device != o.device || v.conformant != o.conformant || v.contracts != o.contracts ||
		len(v.violations) != len(o.violations) {
		return false
	}
	for i := range v.violations {
		if v.violations[i] != o.violations[i] {
			return false
		}
	}
	return true
}

func verdictOfAnswer(a *engine.DeviceAnswer) verdict {
	v := verdict{device: a.Device, conformant: a.Conformant, contracts: a.Contracts}
	for _, viol := range a.Violations {
		v.violations = append(v.violations, viol.String())
	}
	return v
}

func verdictOfDevice(d *rcdc.DeviceReport) verdict {
	v := verdict{device: d.Name, conformant: d.Healthy(), contracts: d.Contracts}
	for _, viol := range d.Violations {
		v.violations = append(v.violations, viol.String())
	}
	return v
}

func verdictsOfReport(rep *rcdc.Report) []verdict {
	out := make([]verdict, len(rep.Devices))
	for i := range rep.Devices {
		out[i] = verdictOfDevice(&rep.Devices[i])
	}
	return out
}

// compareVerdicts returns one line per served verdict that differs from
// the truth (both in device order), capped so a systematic failure does
// not flood the report.
func compareVerdicts(served, truth []verdict) []string {
	var wrong []string
	if len(served) != len(truth) {
		return []string{fmt.Sprintf("served %d device verdicts, truth has %d", len(served), len(truth))}
	}
	for i := range served {
		if !served[i].equal(truth[i]) {
			wrong = append(wrong, fmt.Sprintf("device %s: served conformant=%v contracts=%d violations=%d, truth conformant=%v contracts=%d violations=%d",
				served[i].device, served[i].conformant, served[i].contracts, len(served[i].violations),
				truth[i].conformant, truth[i].contracts, len(truth[i].violations)))
			if len(wrong) == 5 {
				break
			}
		}
	}
	return wrong
}
