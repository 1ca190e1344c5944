package monitor

import (
	"fmt"

	"dcvalidate/internal/bgp"
	"dcvalidate/internal/delta"
	"dcvalidate/internal/topology"
)

// Incremental cycle planning: steady-state monitoring cycles see very few
// topology changes, so instead of re-pulling the whole fleet the instance
// consumes each datacenter's change journal, computes the blast radius of
// the window (internal/delta), and schedules only those devices — plus
// any device currently failing, whose retry loop must keep running.
// Everything else provably converged to the same tables it had last
// cycle, so the previous results are carried forward wholesale.

func (in *Instance) fullSweepEvery() int {
	if in.FullSweepEvery > 0 {
		return in.FullSweepEvery
	}
	return 16
}

// cyclePlan decides what this cycle pulls, as targets in dispatch order.
// It returns the whole fleet and true for a full sweep — always without
// Incremental, and with it on the first cycle, on the periodic safety net,
// when a journal was truncated past the last observed generation, or when
// the blast radius is unbounded. Otherwise it returns the dirty devices
// and false.
func (in *Instance) cyclePlan() ([]target, bool) {
	if !in.Incremental || in.lastGen == nil {
		return in.fleet(), true
	}
	if in.cycle-in.lastFullSweep >= in.fullSweepEvery() {
		return in.fleet(), true
	}
	var plan []target
	for _, dc := range in.Datacenters {
		ds := delta.Since(dc.Topo, in.lastGen[dc.Name], delta.Options{
			UnboundedConfig: bgp.ConfigUnbounded(dc.Cfg),
			Metrics:         in.deltaM,
		})
		if ds.Full() {
			return in.fleet(), true // unbounded blast, or a journal truncated past lastGen
		}
		dirty := make(map[topology.DeviceID]bool, ds.Count())
		for _, d := range ds.Devices() {
			dirty[d] = true
		}
		for i := range dc.Facts.Devices {
			id := dc.Facts.Devices[i].ID
			// Failing devices stay in the plan regardless of the blast
			// radius: their retry/backoff and Unmonitored escalation must
			// keep running until they recover.
			d := in.devices[deviceKey{dc.Name, id}]
			if dirty[id] || d != nil && (d.health.ConsecutiveFailures > 0 || d.health.Unmonitored) {
				plan = append(plan, target{dc, id})
			}
		}
	}
	return plan, false
}

// carryForward re-ingests the previous result of every device outside the
// cycle's plan. Those devices are outside every journaled change's blast
// radius, so their converged tables are provably identical to last
// cycle's: the carried record counts as a successful observation (it
// keeps analytics streaks and staleness bookkeeping continuous). Called
// after ValidateQueued; no cycle work is concurrent with it.
func (in *Instance) carryForward(stats *CycleStats, plan []target) {
	next := 0 // plan lists its devices in this walk's order
	for _, dc := range in.Datacenters {
		for i := range dc.Facts.Devices {
			id := dc.Facts.Devices[i].ID
			if next < len(plan) && plan[next] == (target{dc, id}) {
				next++
				continue
			}
			d := in.devices[deviceKey{dc.Name, id}]
			if d == nil || !d.validated {
				// Unreachable in a healthy instance: a device with no
				// result has never validated, so its health record keeps
				// it in every plan. Surface it rather than letting the
				// device silently vanish from the cycle.
				stats.Errs = append(stats.Errs,
					fmt.Errorf("monitor: no prior result to carry forward for %s/%d", dc.Name, id))
				continue
			}
			stats.Devices++
			stats.CarriedForward++
			stats.Violations += in.carry(d, false)
			in.noteSuccess(d)
		}
	}
}
