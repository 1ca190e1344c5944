package dcvalidate

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// citingDocs are the documents whose test and series names must stay live.
var citingDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// patternFiles are the build files whose -run, -bench and -fuzz patterns
// must each select a test.
var patternFiles = []string{"Makefile", ".github/workflows/ci.yml"}

var (
	testFunc    = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	citedTest   = regexp.MustCompile(`\b((?:Test|Fuzz|Benchmark)[A-Z0-9]\w*)((?:\.?\*)?)`)
	seriesName  = regexp.MustCompile(`dcv_[a-z0-9_]*`)
	seriesLit   = regexp.MustCompile(`\.(?:Counter|Gauge|Histogram)(?:Vec)?\(\s*"(dcv_[a-z0-9_]+)"`)
	testPattern = regexp.MustCompile(`-(run|bench|fuzz)[ =]('[^']*'|"[^"]*"|[^\s;]+)`)
)

// TestDocsCiteLiveNames: a document or build file that names a test or a
// metric series names one that exists. Every Test…, Fuzz… or Benchmark…
// name that citingDocs cite is a function of some _test.go file in the
// repository (a name with a trailing * or .* is a prefix that must start at
// least one); every alternative of a -run, -bench or -fuzz pattern in
// patternFiles matches a test of its kind ("xxx", which selects none on
// purpose, aside); and every dcv_* series the documents cite is registered
// by non-test code — a histogram's _bucket, _sum and _count series by its
// name, a name cut short at "_" (dcv_x_*, dcv_x_{a,b}_total) as a prefix.
func TestDocsCiteLiveNames(t *testing.T) {
	tests, series := liveNames(t)
	for _, doc := range citingDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range citedTest.FindAllStringSubmatch(string(raw), -1) {
			if !testExists(tests, m[1], m[2] != "") {
				t.Errorf("%s cites %s%s, which no _test.go file defines", doc, m[1], m[2])
			}
		}
		for _, name := range seriesName.FindAllString(string(raw), -1) {
			if !seriesExists(series, name) {
				t.Errorf("%s cites series %s, which no non-test code registers", doc, name)
			}
		}
	}
	for _, file := range patternFiles {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testPattern.FindAllStringSubmatch(string(raw), -1) {
			pattern := strings.Trim(m[2], `'"`)
			if pattern == "xxx" {
				continue
			}
			for _, alt := range strings.Split(pattern, "|") {
				if ok, err := patternMatches(tests, m[1], alt); err != nil {
					t.Errorf("%s: -%s %s: %v", file, m[1], pattern, err)
				} else if !ok {
					t.Errorf("%s: -%s %s: %q matches no test", file, m[1], pattern, alt)
				}
			}
		}
	}
}

// liveNames returns the test, fuzz, benchmark and example functions of
// every _test.go file in the repository, sorted, and the dcv_* series its
// non-test Go files register with an obs.Registry.
func liveNames(t *testing.T) (tests []string, series map[string]bool) {
	t.Helper()
	series = map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testFunc.FindAllStringSubmatch(string(raw), -1) {
				tests = append(tests, m[1])
			}
			return nil
		}
		for _, m := range seriesLit.FindAllStringSubmatch(string(raw), -1) {
			series[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(tests)
	return tests, series
}

// testExists reports whether name is a test function, or with prefix the
// start of one.
func testExists(tests []string, name string, prefix bool) bool {
	i := sort.SearchStrings(tests, name)
	if i == len(tests) {
		return false
	}
	return tests[i] == name || prefix && strings.HasPrefix(tests[i], name)
}

// patternMatches reports whether one alternative of a go test -run, -bench
// or -fuzz pattern selects a test of that flag's kind. Only its top level —
// up to the first "/" — names a function.
func patternMatches(tests []string, flag, alt string) (bool, error) {
	top, _, _ := strings.Cut(alt, "/")
	re, err := regexp.Compile(top)
	if err != nil {
		return false, err
	}
	kinds := map[string][]string{"run": {"Test", "Fuzz", "Example"}, "bench": {"Benchmark"}, "fuzz": {"Fuzz"}}[flag]
	for _, name := range tests {
		for _, kind := range kinds {
			if strings.HasPrefix(name, kind) && re.MatchString(name) {
				return true, nil
			}
		}
	}
	return false, nil
}

// seriesExists reports whether a cited series name is registered: as it
// stands, as a histogram's derived series, or — cut short at "_" — as the
// prefix of one.
func seriesExists(series map[string]bool, name string) bool {
	if strings.HasSuffix(name, "_") {
		for s := range series {
			if strings.HasPrefix(s, name) {
				return true
			}
		}
		return false
	}
	if series[name] {
		return true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && series[base] {
			return true
		}
	}
	return false
}
