package badabing_test

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestSettableCensus keeps unset knobs out of the configuration types.
// It reads the type-checked module (loadModule: every package, its tests
// and perfbench's files, which are read as callers) and collects the
// exported fields without a json tag of exported …Config, …Options and
// Budgets structs. A field fails the census when nothing sets it except
// its own zero-value default: an assignment directly inside
// `if x.F == 0`, `if x.F <= 0` or `if len(x.F) == 0`. Any keyed literal
// element, other assignment, increment or address-of, in any file,
// counts as a setter. A value no caller varies is a constant, not an
// option. The test logs the number of exported fields of those structs
// for the ledger.
func TestSettableCensus(t *testing.T) {
	c := loadModule(t)
	setters := map[token.Pos]bool{} // field declarations something sets
	for _, cf := range c.files {
		scanSetters(cf.f, cf.info, setters)
	}

	targets := c.targets()
	var unset []string
	for _, f := range targets {
		if !f.tagged && !setters[f.pos] {
			unset = append(unset, f.name)
		}
	}
	t.Logf("settable values: %d exported fields of exported …Config/…Options/Budgets structs", len(targets))
	if len(unset) > 0 {
		t.Errorf("%d fields are set only by their own zero-value default; make each a constant or set it somewhere:\n\t%s",
			len(unset), strings.Join(unset, "\n\t"))
	}
}

// scanSetters records every field f sets, except zero-value defaults.
func scanSetters(f *ast.File, info *types.Info, setters map[token.Pos]bool) {
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
			setters[v.Pos()] = true
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
					setters[st.Field(i).Pos()] = true
					continue
				}
				if id, ok := kv.Key.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
						setters[v.Pos()] = true
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
