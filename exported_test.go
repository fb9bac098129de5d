package badabing_test

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// TestExportCensus keeps dead API out of internal/. An exported
// package-level name, or an exported method, of an internal/ package
// passes when non-test code (the module's or perfbench's) uses it, or
// when another package's tests do. It fails when only its own package's
// tests use it, or nothing does. A method is exempt when it satisfies an
// interface that the module's non-test code names or asserts (io.Closer,
// interface{ Unwrap() Sink }, …), since a call through the interface
// never names it; so are String, Error and the JSON marshalers. The test
// logs the number of exported names that pass for the ledger.
func TestExportCensus(t *testing.T) {
	c := loadModule(t)
	used := map[token.Pos]bool{} // by non-test code or another package's tests
	ifaces := map[*types.Interface]bool{}
	for _, cf := range c.files {
		for _, obj := range cf.info.Uses {
			if pkg := obj.Pkg(); pkg != nil && strings.HasPrefix(pkg.Path(), "badabing/") && (!cf.test || pkg.Path() != cf.dir) {
				used[obj.Pos()] = true
			}
		}
		if cf.test {
			continue
		}
		for _, tv := range cf.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() && it.NumMethods() > 0 {
				ifaces[it] = true
			}
		}
	}

	var pass int
	var dead []string
	for _, n := range c.exportedNames() {
		if used[n.pos] || n.recv != nil && implementsNamed(n.recv, n.method, ifaces) {
			pass++
		} else {
			dead = append(dead, fmt.Sprintf("%s (%s)", n.name, c.fset.Position(n.pos)))
		}
	}
	t.Logf("exported names: %d in internal/ have a caller outside their package's tests", pass)
	if len(dead) > 0 {
		t.Errorf("%d exported names have no caller but their own package's tests; delete each, or unexport a test seam:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// viaStdlib are methods the standard library calls through interfaces
// the module need not name (fmt.Stringer, error, the JSON marshalers).
var viaStdlib = map[string]bool{"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true}

// implementsNamed reports whether method name of recv is one of
// viaStdlib, or part of recv's (or *recv's) implementation of one of
// ifaces.
func implementsNamed(recv *types.Named, name string, ifaces map[*types.Interface]bool) bool {
	if viaStdlib[name] {
		return true
	}
	if recv.TypeParams().Len() > 0 {
		return false
	}
	for it := range ifaces {
		if hasMethod(it, name) && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
			return true
		}
	}
	return false
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// exportedName is one exported package-level object, or exported method,
// declared in an internal/ package.
type exportedName struct {
	name   string
	pos    token.Pos
	method string       // a method's name
	recv   *types.Named // a method's receiver type
}

// exportedNames lists the census's names, sorted.
func (c *census) exportedNames() []exportedName {
	var out []exportedName
	for path, pkg := range c.checked {
		if !c.dirs[path].owned || !strings.HasPrefix(path, "badabing/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				out = append(out, exportedName{name: pkg.Name() + "." + name, pos: obj.Pos()})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					out = append(out, exportedName{name: pkg.Name() + "." + name + "." + m.Name(), pos: m.Pos(), method: m.Name(), recv: named})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
