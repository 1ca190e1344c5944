package monitor

import (
	"fmt"
	"sort"

	"dcvalidate/internal/topology"
)

// Per-device health tracking: the monitoring service runs against O(10K)
// flaky production devices (§2.6.1), so a failed observation must degrade
// rather than discard. A device that fails a cycle keeps its last-known-
// good validation result alive (flagged stale) for a bounded number of
// cycles; a device that fails persistently is marked Unmonitored and
// escalated into the alert queue as telemetry loss — monitoring blindness
// is itself an error condition worth triaging.

// DeviceHealth tracks one device's monitoring liveness across cycles.
type DeviceHealth struct {
	// ConsecutiveFailures counts failed cycles since the last successful
	// fresh validation.
	ConsecutiveFailures int
	// LastGoodCycle is the last cycle with a successful validation (0 if
	// the device never succeeded).
	LastGoodCycle int
	// Unmonitored is set once ConsecutiveFailures reaches the instance
	// threshold; it clears on the next successful observation.
	Unmonitored bool
	// LastErr is the most recent failure (nil while healthy).
	LastErr error
}

// DeviceError is one per-device failure attributed to its datacenter.
type DeviceError struct {
	Datacenter string
	Device     topology.DeviceID
	Err        error
}

func (e DeviceError) Error() string {
	return fmt.Sprintf("monitor: device %s/%d: %v", e.Datacenter, e.Device, e.Err)
}

func (e DeviceError) Unwrap() error { return e.Err }

// deviceKey indexes a device's state: datacenter name and device ID.
type deviceKey struct {
	dc  string
	dev topology.DeviceID
}

// deviceState is one device's monitoring state across cycles: its health
// and, once it has validated, its last fresh result with the hash of the
// documents that result was computed from.
type deviceState struct {
	health    DeviceHealth
	last      Record
	hash      uint64
	validated bool
}

// state returns the device's state, creating it on first observation.
func (in *Instance) state(dc string, dev topology.DeviceID) *deviceState {
	k := deviceKey{dc, dev}
	d := in.devices[k]
	if d == nil {
		if in.devices == nil {
			in.devices = make(map[deviceKey]*deviceState)
		}
		d = &deviceState{}
		in.devices[k] = d
	}
	return d
}

// carry re-ingests the device's last fresh result re-stamped at this
// cycle, flagged stale when this cycle's observation failed, and returns
// its violation count. It is the one carry-forward: a SkipUnchanged hit, a
// device outside an incremental cycle's plan, and a failed device within
// its staleness bound all take it.
func (in *Instance) carry(d *deviceState, stale bool) int {
	rec := d.last
	rec.Cycle = in.cycle
	rec.Stale = stale
	in.Analytics.Ingest(rec)
	return len(rec.Violations)
}

// noteFailure records one failed device observation: it advances the
// consecutive-failure count, carries the last-known-good result forward
// (flagged stale) while within the staleness bound, and past the failure
// threshold marks the device Unmonitored and emits the telemetry-loss
// record the alert tracker and triage escalate.
func (in *Instance) noteFailure(vs *ValidateStats, dcName string, dev topology.DeviceID, err error) {
	vs.Errs = append(vs.Errs, err)
	d := in.state(dcName, dev)
	h := &d.health
	h.ConsecutiveFailures++
	h.LastErr = err
	if h.ConsecutiveFailures >= in.maxConsecutive() {
		h.Unmonitored = true
	}
	if h.Unmonitored {
		vs.Unmonitored++
		in.Analytics.Ingest(Record{
			Cycle: in.cycle, Datacenter: dcName, Device: dev, Unmonitored: true,
		})
		return
	}
	if d.validated && h.LastGoodCycle > 0 && in.cycle-h.LastGoodCycle <= in.staleBound() {
		vs.Devices++
		vs.Stale++
		vs.Violations += in.carry(d, true)
	}
}

// noteSuccess resets a device's health after a successful observation
// (fresh validation, an unchanged-document skip, or a carry-forward).
func (in *Instance) noteSuccess(d *deviceState) {
	d.health = DeviceHealth{LastGoodCycle: in.cycle}
}

// Health returns a snapshot of a device's health record. The zero value
// (and ok=false) means the device has never been observed failing or
// succeeding. Call between cycles; not synchronized with a running one.
func (in *Instance) Health(dc string, dev topology.DeviceID) (DeviceHealth, bool) {
	d, ok := in.devices[deviceKey{dc, dev}]
	if !ok {
		return DeviceHealth{}, false
	}
	return d.health, true
}

// UnmonitoredDevices lists the devices currently past the failure
// threshold, ordered for stable output. Call between cycles.
func (in *Instance) UnmonitoredDevices() []DeviceError {
	var out []DeviceError
	for _, dc := range in.Datacenters {
		for i := range dc.Facts.Devices {
			dev := dc.Facts.Devices[i].ID
			if d, ok := in.devices[deviceKey{dc.Name, dev}]; ok && d.health.Unmonitored {
				out = append(out, DeviceError{Datacenter: dc.Name, Device: dev, Err: d.health.LastErr})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Datacenter != out[j].Datacenter {
			return out[i].Datacenter < out[j].Datacenter
		}
		return out[i].Device < out[j].Device
	})
	return out
}
