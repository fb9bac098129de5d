package badabing_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestSettableCensus keeps unset knobs out of the configuration types.
// It type-checks the module (every package, its tests and perfbench's
// files, which are read as callers) and collects the exported fields
// without a json tag of exported …Config, …Options and Budgets structs.
// A field fails the census when nothing sets it except its own
// zero-value default: an assignment directly inside `if x.F == 0`,
// `if x.F <= 0` or `if len(x.F) == 0`. Any keyed literal element, other
// assignment, increment or address-of, in any file, counts as a setter.
// A value no caller varies is a constant, not an option. The test logs
// the number of exported fields of those structs for the ledger.
func TestSettableCensus(t *testing.T) {
	c := &census{
		fset:    token.NewFileSet(),
		std:     importer.ForCompiler(token.NewFileSet(), "gc", nil),
		dirs:    map[string]*pkgDir{},
		checked: map[string]*types.Package{},
		setters: map[token.Pos]bool{},
	}
	if err := c.load("."); err != nil {
		t.Fatal(err)
	}
	if err := c.checkAll(); err != nil {
		t.Fatal(err)
	}

	targets := c.targets()
	var unset []string
	for _, f := range targets {
		if !f.tagged && !c.setters[f.pos] {
			unset = append(unset, f.name)
		}
	}
	t.Logf("settable values: %d exported fields of exported …Config/…Options/Budgets structs", len(targets))
	if len(unset) > 0 {
		t.Errorf("%d fields are set only by their own zero-value default; make each a constant or set it somewhere:\n\t%s",
			len(unset), strings.Join(unset, "\n\t"))
	}
}

// census holds the module's parsed packages and the fields its code sets.
type census struct {
	fset    *token.FileSet
	std     types.Importer
	dirs    map[string]*pkgDir // by import path
	checked map[string]*types.Package
	setters map[token.Pos]bool // field declarations something sets
}

// pkgDir is one directory's files, split the way `go test` builds them.
type pkgDir struct {
	files    []*ast.File // the package
	inTests  []*ast.File // _test.go files of the same package
	extTests []*ast.File // _test.go files of package <name>_test
	owned    bool        // declares the census's targets (not perfbench)
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
// in-package tests, then its external tests, recording setters in all.
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
			files := append(append([]*ast.File{}, d.files...), d.inTests...)
			pkg, err := c.check(p, files, d.inTests, nil)
			if err != nil {
				return err
			}
			self = pkg
		}
		if len(d.extTests) > 0 {
			if _, err := c.check(p+"_test", d.extTests, d.extTests, self); err != nil {
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
	pkg, err := c.check(path, d.files, d.files, nil)
	if err != nil {
		return nil, err
	}
	c.checked[path] = pkg
	return pkg, nil
}

// check type-checks files as package path and records the setters in
// scan. An external test package imports self in place of its package.
func (c *census) check(path string, files, scan []*ast.File, self *types.Package) (*types.Package, error) {
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
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	for _, f := range scan {
		c.scan(f, info)
	}
	return pkg, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// scan records every field f sets, except zero-value defaults.
func (c *census) scan(f *ast.File, info *types.Info) {
	fieldOf := func(e ast.Expr) *types.Var {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			return s.Obj().(*types.Var)
		}
		return nil
	}
	defaults := map[ast.Expr]bool{}
	set := func(e ast.Expr) {
		if v := fieldOf(e); v != nil && !defaults[e] {
			c.setters[v.Pos()] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if v := zeroTest(n.Cond, info, fieldOf); v != nil {
				for _, s := range n.Body.List {
					if as, ok := s.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
						for _, lhs := range as.Lhs {
							if fieldOf(lhs) == v {
								defaults[lhs] = true
							}
						}
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				set(lhs)
			}
		case *ast.IncDecStmt:
			set(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				if n.Key != nil {
					set(n.Key)
				}
				if n.Value != nil {
					set(n.Value)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				set(n.X)
			}
		case *ast.CompositeLit:
			st, ok := info.Types[n].Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					c.setters[st.Field(i).Pos()] = true
					continue
				}
				if id, ok := kv.Key.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
						c.setters[v.Pos()] = true
					}
				}
			}
		}
		return true
	})
}

// zeroTest returns the field a condition `x.F == 0`, `x.F <= 0` or
// `len(x.F) == 0` tests, or nil.
func zeroTest(cond ast.Expr, info *types.Info, fieldOf func(ast.Expr) *types.Var) *types.Var {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.LEQ) {
		return nil
	}
	zero := info.Types[be.Y].Value
	if zero == nil || (zero.Kind() != constant.Int && zero.Kind() != constant.Float) || constant.Sign(zero) != 0 {
		return nil
	}
	x := ast.Unparen(be.X)
	if call, ok := x.(*ast.CallExpr); ok && be.Op == token.EQL && len(call.Args) == 1 {
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "len" {
			x = call.Args[0]
		}
	}
	return fieldOf(x)
}

// target is one exported field of an exported configuration struct.
type target struct {
	name   string
	pos    token.Pos
	tagged bool // has a json tag: an API field, set by decoding
}

// targets lists the census's fields in the module's own packages.
func (c *census) targets() []target {
	var out []target
	for path, pkg := range c.checked {
		if !c.dirs[path].owned {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || name == "Budgets") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() {
					continue
				}
				_, tagged := reflect.StructTag(st.Tag(i)).Lookup("json")
				out = append(out, target{
					name:   fmt.Sprintf("%s.%s.%s", pkg.Name(), name, f.Name()),
					pos:    f.Pos(),
					tagged: tagged,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
