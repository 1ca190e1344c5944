package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestLoadSkipsNestedModules: "./..." stops at a directory holding its own
// go.mod, as go build does, so a nested module's packages are neither
// loaded nor analyzed with the enclosing module's.
func TestLoadSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/outer\n\ngo 1.22\n")
	write("outer.go", "package outer\n")
	write("inner/inner.go", "package inner\n")
	write("nested/go.mod", "module example.com/nested\n\ngo 1.22\n")
	write("nested/nested.go", "package nested\n\nimport \"example.com/nested/deep\"\n\nvar _ = deep.X\n")
	write("nested/deep/deep.go", "package deep\n\nconst X = 1\n")

	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.Path)
	}
	if want := []string{"example.com/outer", "example.com/outer/inner"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded %v, want %v", got, want)
	}
}
