package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
// Test files (_test.go) are excluded: the determinism invariants govern
// production code, and tests legitimately panic and read wall time.
type Package struct {
	Path      string // import path, e.g. dcvalidate/internal/monitor
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// A Loader parses and type-checks packages of a single module without
// external dependencies: module-internal imports are resolved by
// directory, standard-library imports through the compiler's source
// importer (offline, no export data needed).
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset   *token.FileSet
	std    types.Importer
	loaded map[string]*Package // by import path
	errs   []error
}

// NewLoader locates the enclosing module starting at dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modpath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modpath = strings.TrimSpace(rest)
			break
		}
	}
	if modpath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modpath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		loaded:     map[string]*Package{},
	}, nil
}

// Load expands the given patterns ("./...", "./internal/...", or plain
// package directories relative to the module root) and returns the
// matched packages, type-checked. Type errors in the target code are
// returned as an error: the analyzers need sound type information.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	if len(l.errs) > 0 {
		return nil, fmt.Errorf("analysis: type errors: %v", l.errs[0])
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// expand turns patterns into a sorted list of package directories.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		}
		if pat == "." || pat == "" {
			pat = l.ModuleRoot
		} else if !filepath.IsAbs(pat) {
			pat = filepath.Join(l.ModuleRoot, pat)
		}
		if !recursive {
			add(pat)
			continue
		}
		err := filepath.WalkDir(pat, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			// A directory holding its own go.mod is another module, which
			// "./..." leaves out, as go build does.
			name := d.Name()
			if path != pat && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor" || hasGoMod(path)) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoMod(dir string) bool {
	fi, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil && !fi.IsDir()
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// importPathOf maps a directory under the module root to its import path.
func (l *Loader) importPathOf(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleRoot)
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

func (l *Loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathOf(dir)
	if err != nil {
		return nil, err
	}
	return l.loadPath(path, dir)
}

func (l *Loader) loadPath(path, dir string) (*Package, error) {
	if pkg, ok := l.loaded[path]; ok {
		return pkg, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		l.loaded[path] = nil
		return nil, nil
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: (*moduleImporter)(l),
		Error: func(err error) {
			l.errs = append(l.errs, err)
		},
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil && tpkg == nil {
		return nil, err
	}
	pkg := &Package{
		Path:      path,
		Dir:       dir,
		Fset:      l.fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}
	l.loaded[path] = pkg
	return pkg, nil
}

// moduleImporter resolves module-internal import paths by directory and
// everything else via the source importer. It is the Loader itself
// under a different method set, so the package cache is shared.
type moduleImporter Loader

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(m)
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
		pkg, err := l.loadPath(path, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("analysis: no Go files in %s", dir)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
