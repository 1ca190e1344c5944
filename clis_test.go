package dcvalidate

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIs drives the command-line tools end to end: generate a datacenter
// with topogen (facts, routing tables, configs, dot), validate the dumped
// tables with rcdc -fibdir, check the sample policies with secguru, run a
// dcmon burndown, and spot-run a dcbench experiment.
func TestCLIs(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI runs take a few seconds")
	}
	dir := t.TempDir()
	run := func(args ...string) (string, error) {
		cmd := exec.Command("go", append([]string{"run"}, args...)...)
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	topoFlags := []string{"-clusters", "2", "-tors", "4", "-leaves", "2",
		"-spines", "1", "-rs", "2", "-rslinks", "1"}

	t.Run("topogen", func(t *testing.T) {
		args := append([]string{"./cmd/topogen",
			"-facts", filepath.Join(dir, "facts.json"),
			"-fibdir", filepath.Join(dir, "fibs"),
			"-confdir", filepath.Join(dir, "confs"),
			"-dot", filepath.Join(dir, "topo.dot")}, topoFlags...)
		out, err := run(args...)
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		for _, f := range []string{"facts.json", "topo.dot",
			"fibs/dc-c0-t0-0.rt", "confs/dc-c0-t0-0.conf"} {
			if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
				t.Errorf("missing output %s: %v", f, err)
			}
		}
	})

	t.Run("dcconflint-selfcheck", func(t *testing.T) {
		args := append([]string{"./cmd/dcconflint", "-selfcheck"}, topoFlags...)
		out, err := run(args...)
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(out, "0 finding(s)") {
			t.Errorf("selfcheck not clean:\n%s", out)
		}
	})

	t.Run("dcconflint-from-files", func(t *testing.T) {
		args := append([]string{"./cmd/dcconflint"}, topoFlags...)
		args = append(args, filepath.Join(dir, "confs"))
		out, err := run(args...)
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(out, "0 finding(s)") {
			t.Errorf("rendered confs not clean:\n%s", out)
		}
	})

	t.Run("dcconflint-detects-misconfig", func(t *testing.T) {
		// Point one ToR's first session at a wrong remote-as and re-lint
		// the directory: session-symmetry must fire and the exit code
		// must flip to 1.
		raw, err := os.ReadFile(filepath.Join(dir, "confs", "dc-c0-t0-0.conf"))
		if err != nil {
			t.Fatal(err)
		}
		broken := strings.Replace(string(raw), "remote-as 4200001000", "remote-as 64999", 1)
		if broken == string(raw) {
			t.Fatalf("mutation did not apply:\n%s", raw)
		}
		brokenDir := filepath.Join(dir, "confs-broken")
		if err := os.MkdirAll(brokenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(filepath.Join(dir, "confs"))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			src := filepath.Join(dir, "confs", e.Name())
			data, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			if e.Name() == "dc-c0-t0-0.conf" {
				data = []byte(broken)
			}
			if err := os.WriteFile(filepath.Join(brokenDir, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		args := append([]string{"./cmd/dcconflint"}, topoFlags...)
		args = append(args, brokenDir)
		out, err := run(args...)
		if err == nil {
			t.Fatalf("dcconflint exited 0 despite misconfig:\n%s", out)
		}
		if !strings.Contains(out, "session-symmetry") {
			t.Errorf("missing session-symmetry finding:\n%s", out)
		}
	})

	t.Run("rcdc-from-files", func(t *testing.T) {
		args := append([]string{"./cmd/rcdc", "-fibdir", filepath.Join(dir, "fibs")}, topoFlags...)
		out, err := run(args...)
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(out, "0 violations") {
			t.Errorf("unexpected output:\n%s", out)
		}
	})

	t.Run("rcdc-detects-failure", func(t *testing.T) {
		args := append([]string{"./cmd/rcdc", "-v",
			"-fail", "dc-c0-t0-0:dc-c0-t1-0"}, topoFlags...)
		out, err := run(args...)
		if err == nil {
			t.Fatalf("rcdc exited 0 despite violations:\n%s", out)
		}
		if !strings.Contains(out, "default-mismatch") {
			t.Errorf("missing violation detail:\n%s", out)
		}
	})

	t.Run("secguru", func(t *testing.T) {
		out, err := run("./cmd/secguru",
			"-policy", "testdata/edge.acl", "-contracts", "testdata/edge-contracts.json")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if strings.Contains(out, "FAIL") {
			t.Errorf("sample suite failed:\n%s", out)
		}
	})

	t.Run("secguru-suggest", func(t *testing.T) {
		// Break the sample ACL by removing its final permits, then ask for
		// repairs.
		raw, err := os.ReadFile("testdata/edge.acl")
		if err != nil {
			t.Fatal(err)
		}
		broken := strings.ReplaceAll(string(raw), "permit ip any 104.208.32.0/20", "")
		brokenPath := filepath.Join(dir, "broken.acl")
		if err := os.WriteFile(brokenPath, []byte(broken), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := run("./cmd/secguru", "-suggest",
			"-policy", brokenPath, "-contracts", "testdata/edge-contracts.json")
		if err == nil {
			t.Fatalf("broken policy passed:\n%s", out)
		}
		if !strings.Contains(out, "suggested repair (verified)") {
			t.Errorf("no repair suggestion:\n%s", out)
		}
	})

	t.Run("dcmon", func(t *testing.T) {
		out, err := run("./cmd/dcmon", "-clusters", "2", "-tors", "4",
			"-faults", "5", "-cycles", "10", "-fix", "3")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(out, "backlog clear") {
			t.Errorf("burndown did not complete:\n%s", out)
		}
	})

	t.Run("dcbench-e5", func(t *testing.T) {
		out, err := run("./cmd/dcbench", "-e", "e5")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(out, "reachability failures: 0") {
			t.Errorf("E5 output unexpected:\n%s", out)
		}
	})
}
