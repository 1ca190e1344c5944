package experiments

import (
	"strings"
	"testing"
	"time"
)

// The experiment harness is exercised end to end at tiny scale: every
// experiment must run to completion and produce a table without the
// "UNEXPECTED" marker that flags internal consistency failures.

func checkResult(t *testing.T, r Result, wantID string) {
	t.Helper()
	if r.ID != wantID {
		t.Errorf("ID = %q, want %q", r.ID, wantID)
	}
	if r.Table == "" || r.Title == "" {
		t.Error("empty table or title")
	}
	if strings.Contains(r.Table, "UNEXPECTED") {
		t.Errorf("%s reported internal inconsistency:\n%s", r.ID, r.Table)
	}
	if !strings.Contains(r.String(), r.Title) {
		t.Error("String() missing title")
	}
}

func TestE1Smoke(t *testing.T)   { checkResult(t, E1PerDevice([]int{200}, 3), "E1") }
func TestE2Smoke(t *testing.T)   { checkResult(t, E2Sweep([]int{200}), "E2") }
func TestE3Smoke(t *testing.T)   { checkResult(t, E3LocalVsGlobal([]int{200}), "E3") }
func TestE5Smoke(t *testing.T)   { checkResult(t, E5Figure3(), "E5") }
func TestE6Smoke(t *testing.T)   { checkResult(t, E6Taxonomy(), "E6") }
func TestE7Smoke(t *testing.T)   { checkResult(t, E7Burndown(), "E7") }
func TestE8Smoke(t *testing.T)   { checkResult(t, E8ACLLatency([]int{100}), "E8") }
func TestE9Smoke(t *testing.T)   { checkResult(t, E9Refactor(), "E9") }
func TestE11Smoke(t *testing.T)  { checkResult(t, E11Firewall(), "E11") }
func TestE12Smoke(t *testing.T)  { checkResult(t, E12Precheck(), "E12") }
func TestE13Smoke(t *testing.T)  { checkResult(t, E13Monitor([]int{150}), "E13") }
func TestE13cSmoke(t *testing.T) { checkResult(t, E13cDegraded(150, 4), "E13c") }
func TestE14Smoke(t *testing.T)  { checkResult(t, E14Claim1(6), "E14") }

// E4's rows feed BENCH_solver.json and the e4s CI gate: every point must
// agree with the trie oracle (sequential and parallel SMT alike).
func TestE4Smoke(t *testing.T) {
	res, rows := E4SMTVsTrie([]int{100})
	checkResult(t, res, "E4")
	if len(rows) != 1 {
		t.Fatalf("rows = %+v, want one point", rows)
	}
	if !rows[0].Match {
		t.Errorf("SMT verdicts diverge from trie oracle: %+v", rows[0])
	}
	if rows[0].SMTContractNS <= 0 || rows[0].Workers < 1 {
		t.Errorf("implausible row: %+v", rows[0])
	}
}

func TestE4SolverGateSmoke(t *testing.T) {
	checkResult(t, E4SolverGate(100, time.Second), "E4s")
}

func TestE5DetectsPaperViolationSet(t *testing.T) {
	r := E5Figure3()
	// The §2.4.4 headline facts must appear in the table.
	for _, want := range []string{
		"fig3-c0-t0-0", "default-mismatch", "missing-route",
		"reachability failures: 0",
		"6 hops",
	} {
		if !strings.Contains(r.Table, want) {
			t.Errorf("E5 table missing %q:\n%s", want, r.Table)
		}
	}
}

func TestE6AllClassesDetected(t *testing.T) {
	r := E6Taxonomy()
	if strings.Contains(r.Table, "false") {
		t.Errorf("E6 has undetected classes:\n%s", r.Table)
	}
	for _, class := range []string{
		"rib-fib-inconsistency", "l2-port-bug", "hardware-failure",
		"operation-drift", "migration-misconfig", "policy-error",
	} {
		if !strings.Contains(r.Table, class) {
			t.Errorf("E6 missing class %q", class)
		}
	}
}

func TestSizedParams(t *testing.T) {
	for _, n := range []int{100, 1000, 5000} {
		p := SizedParams("t", n)
		if err := p.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := p.NumDevices()
		if got < n || got > n+60 {
			t.Errorf("n=%d: NumDevices = %d", n, got)
		}
	}
}

func TestE15Smoke(t *testing.T) { checkResult(t, E15Region(), "E15") }

func TestE13bSmoke(t *testing.T) { checkResult(t, E13bIncremental(150), "E13b") }
