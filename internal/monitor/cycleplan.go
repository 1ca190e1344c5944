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

// cyclePlan decides what this cycle pulls. It returns (nil, true) for a
// full sweep — always without Incremental, and with it on the first
// cycle, on the periodic safety net, when a journal was truncated past
// the last observed generation, or when the blast radius is unbounded.
// Otherwise it returns the per-DC dirty device lists (ascending device
// order) and false.
func (in *Instance) cyclePlan() (map[string][]topology.DeviceID, bool) {
	if !in.Incremental || in.lastGen == nil {
		return nil, true
	}
	if in.cycle-in.lastFullSweep >= in.fullSweepEvery() {
		return nil, true
	}
	plan := make(map[string][]topology.DeviceID, len(in.Datacenters))
	for _, dc := range in.Datacenters {
		ds := delta.Since(dc.Topo, in.lastGen[dc.Name], delta.Options{
			UnboundedConfig: bgp.ConfigUnbounded(dc.Cfg),
			Metrics:         in.deltaM,
		})
		if ds.Full() {
			return nil, true // unbounded blast, or a journal truncated past lastGen
		}
		dirty := make(map[topology.DeviceID]bool, ds.Count())
		for _, d := range ds.Devices() {
			dirty[d] = true
		}
		var devs []topology.DeviceID
		for i := range dc.Facts.Devices {
			id := dc.Facts.Devices[i].ID
			if dirty[id] {
				devs = append(devs, id)
				continue
			}
			// Failing devices stay in the plan regardless of the blast
			// radius: their retry/backoff and Unmonitored escalation must
			// keep running until they recover.
			if h := in.health[memoKey(dc.Name, int32(id))]; h != nil &&
				(h.ConsecutiveFailures > 0 || h.Unmonitored) {
				devs = append(devs, id)
			}
		}
		plan[dc.Name] = devs
	}
	return plan, false
}

// carryForward re-ingests the previous result of every device the cycle
// did not attempt. Those devices are outside every journaled change's
// blast radius, so their converged tables are provably identical to last
// cycle's: the carried record counts as a successful observation (it
// keeps analytics streaks and staleness bookkeeping continuous). Called
// between ValidateQueued and the end of the cycle; no cycle work is
// concurrent with it.
func (in *Instance) carryForward(stats *CycleStats) {
	for _, dc := range in.Datacenters {
		for i := range dc.Facts.Devices {
			id := dc.Facts.Devices[i].ID
			key := memoKey(dc.Name, int32(id))
			if in.observed[key] {
				continue
			}
			m, ok := in.memo[key]
			if !ok {
				// Unreachable in a healthy instance: a device with no
				// memoized result has never validated, so its health
				// record keeps it in every plan. Surface it rather than
				// letting the device silently vanish from the cycle.
				stats.Errs = append(stats.Errs,
					fmt.Errorf("monitor: no prior result to carry forward for %s/%d", dc.Name, id))
				continue
			}
			rec := m.record
			rec.Cycle = in.cycle
			in.Analytics.Ingest(rec)
			in.noteSuccess(key)
			stats.Devices++
			stats.CarriedForward++
			stats.Violations += len(rec.Violations)
		}
	}
}
