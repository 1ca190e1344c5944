package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// sizes fixes every workload's input size and, when -seconds is not
// given, its op counts. Timed runs (-seconds) keep the sizes and replace
// the op counts with a deadline: the same seeded input stream, consumed
// for as long as the run measures.
type sizes struct {
	fleetDevices int // fleet_sweep and link_churn fleet
	faults       int // seeded §2.6.2 faults on the fleet_sweep fleet
	sweepRounds  int // fleet_sweep: fresh datacenters swept cold + repeat

	churnRounds int // link_churn: fresh warmed datacenters
	churnWarmup int // unmeasured events per round
	churnEvents int // measured events per round
	churnHits   int // repeat QueryDevice calls after each event

	serveDevices int           // dcvalidated fleet
	serveRounds  int           // dcvalidated boots
	serveSeconds float64       // load per boot
	writeEvery   time.Duration // write schedule on connection 0

	acls     int // policy_smt: legacy Edge ACLs (one per round)
	nsgBatch int // NSG documents per round
}

func sizesFor(quick bool) sizes {
	if quick {
		return sizes{
			fleetDevices: 136, faults: 4, sweepRounds: 3,
			churnRounds: 2, churnWarmup: 1, churnEvents: 5, churnHits: 2000,
			serveDevices: 520, serveRounds: 1, serveSeconds: 3, writeEvery: 500 * time.Millisecond,
			acls: 2, nsgBatch: 100,
		}
	}
	return sizes{
		fleetDevices: 2008, faults: 12, sweepRounds: 12,
		churnRounds: 3, churnWarmup: 2, churnEvents: 34, churnHits: 20000,
		serveDevices: 520, serveRounds: 3, serveSeconds: 10, writeEvery: 500 * time.Millisecond,
		acls: 16, nsgBatch: 125,
	}
}

func (s sizes) String() string {
	return fmt.Sprintf("fleet_sweep: devices=%d faults=%d rounds=%d | link_churn: devices=%d rounds=%d warmup=%d events=%d hits=%d | "+
		"serve_mixed: devices=%d boots=%d load=%gs write_every=%s connections=2 | policy_smt: acls=%d rules~3000 nsg_per_round=%d",
		s.fleetDevices, s.faults, s.sweepRounds, s.fleetDevices, s.churnRounds, s.churnWarmup, s.churnEvents, s.churnHits,
		s.serveDevices, s.serveRounds, s.serveSeconds, s.writeEvery, s.acls, s.nsgBatch)
}

// budget is a measuring deadline: with a timed run it expires after the
// allotted time, with a fixed-count run after the given number of ops.
// Either way at least minOps ops run, so every median has samples.
type budget struct {
	deadline time.Time // zero = count-bound
	ops      int
	minOps   int
	done     int
}

func newBudget(timed time.Duration, ops, minOps int) *budget {
	b := &budget{ops: ops, minOps: minOps}
	if timed > 0 {
		b.deadline = time.Now().Add(timed)
	}
	return b
}

// more reports whether another op should start, and counts it.
func (b *budget) more() bool {
	var ok bool
	switch {
	case b.done < b.minOps:
		ok = true
	case b.deadline.IsZero():
		ok = b.done < b.ops
	default:
		ok = time.Now().Before(b.deadline)
	}
	if ok {
		b.done++
	}
	return ok
}

// resetPeakRSS makes peak_rss_mb the peak of the workload about to run
// rather than of every workload this process ran before it: it returns
// the previous workload's garbage to the OS and resets the kernel's
// high-water mark (clear_refs "5"). Where /proc does not allow the
// reset, a multi-workload run reads the process-wide peak instead.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM — the peak resident set — of a process from
// /proc, in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
