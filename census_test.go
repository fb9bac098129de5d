package badabing_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The module censuses (TestSettableCensus, TestExportCensus) read one
// type-checked copy of the module: every package, its tests and
// perfbench's files, which are read as callers.
var (
	moduleOnce sync.Once
	moduleC    *census
	moduleErr  error
)

// loadModule type-checks the module once per test binary.
func loadModule(t *testing.T) *census {
	t.Helper()
	moduleOnce.Do(func() {
		c := &census{
			fset:    token.NewFileSet(),
			std:     importer.ForCompiler(token.NewFileSet(), "gc", nil),
			dirs:    map[string]*pkgDir{},
			checked: map[string]*types.Package{},
		}
		if moduleErr = c.load("."); moduleErr == nil {
			moduleErr = c.checkAll()
		}
		moduleC = c
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleC
}

// census holds the module's parsed packages and their type-checked files.
type census struct {
	fset    *token.FileSet
	std     types.Importer
	dirs    map[string]*pkgDir // by import path
	checked map[string]*types.Package
	files   []checkedFile
}

// pkgDir is one directory's files, split the way `go test` builds them.
type pkgDir struct {
	files    []*ast.File // the package
	inTests  []*ast.File // _test.go files of the same package
	extTests []*ast.File // _test.go files of package <name>_test
	owned    bool        // declares the censuses' targets (not perfbench)
}

// checkedFile is one file with the type information of the check that
// read it. Each file appears once: a package's own files from the check
// other packages import, its tests from the check that adds them. A
// package checked with its tests declares new objects for the same
// names, so the censuses key a declaration by its position.
type checkedFile struct {
	f    *ast.File
	info *types.Info
	dir  string // import path of the file's directory
	test bool
}

// load parses every buildable Go file under root. perfbench is its own
// module; its package is read as a caller only.
func (c *census) load(root string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		imp := "badabing"
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		return c.loadDir(path, imp, !strings.HasPrefix(rel, "perfbench"))
	})
}

func (c *census) loadDir(dir, imp string, owned bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	p := &pkgDir{owned: owned}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name) // build tags, GOOS/GOARCH suffixes
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			p.files = append(p.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.extTests = append(p.extTests, f)
		default:
			p.inTests = append(p.inTests, f)
		}
	}
	if len(p.files)+len(p.inTests)+len(p.extTests) > 0 {
		c.dirs[imp] = p
	}
	return nil
}

// checkAll type-checks each package, then each package with its
// in-package tests, then its external tests.
func (c *census) checkAll() error {
	paths := make([]string, 0, len(c.dirs))
	for p := range c.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		d := c.dirs[p]
		if len(d.files) > 0 {
			if _, err := c.importPkg(p); err != nil {
				return err
			}
		}
		self := c.checked[p]
		if len(d.inTests) > 0 {
			pkg, err := c.check(p, d.files, d.inTests, nil)
			if err != nil {
				return err
			}
			self = pkg
		}
		if len(d.extTests) > 0 {
			if _, err := c.check(p+"_test", nil, d.extTests, self); err != nil {
				return err
			}
		}
	}
	return nil
}

// importPkg type-checks a module package from its non-test files once.
func (c *census) importPkg(path string) (*types.Package, error) {
	if pkg, ok := c.checked[path]; ok {
		return pkg, nil
	}
	d := c.dirs[path]
	if d == nil || len(d.files) == 0 {
		return nil, fmt.Errorf("no package %s in the module", path)
	}
	pkg, err := c.check(path, d.files, nil, nil)
	if err != nil {
		return nil, err
	}
	c.checked[path] = pkg
	return pkg, nil
}

// check type-checks a package's files with its tests as package path,
// and keeps the tests with their type information, or the package's
// files when there are no tests. An external test package imports self
// in place of its package.
func (c *census) check(path string, files, tests []*ast.File, self *types.Package) (*types.Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	under := strings.TrimSuffix(path, "_test")
	conf := types.Config{Importer: importerFunc(func(imp string) (*types.Package, error) {
		switch {
		case self != nil && imp == under:
			return self, nil
		case imp == "badabing" || strings.HasPrefix(imp, "badabing/"):
			return c.importPkg(imp)
		}
		return c.std.Import(imp)
	})}
	pkg, err := conf.Check(path, c.fset, append(append([]*ast.File{}, files...), tests...), info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	keep := files
	if len(tests) > 0 {
		keep = tests
	}
	for _, f := range keep {
		c.files = append(c.files, checkedFile{f: f, info: info, dir: under, test: len(tests) > 0})
	}
	return pkg, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
