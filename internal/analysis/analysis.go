// Package analysis implements dsmvet, a suite of static analyzers that
// machine-check the determinism and virtual-time invariants the simulator's
// correctness argument rests on (DESIGN.md §3/§3a and the
// "Machine-checked invariants" section).
//
// The suite mirrors the golang.org/x/tools/go/analysis API shape — an
// Analyzer holding a Run function over a per-package Pass — but is
// self-contained: the module deliberately has no external dependencies, so
// the driver (cmd/dsmvet), the package loader (load.go), and the fixture
// harness (atest_test.go) are built here on go/parser, go/types, and
// go/importer alone.
//
// Analyzers:
//
//   - nondeterminism: no wall clocks, unseeded randomness, undeclared
//     environment reads, or runtime-randomized selects in measured packages.
//   - maporder: no map iteration whose body leaks host iteration order into
//     slices, channels, struct fields, or formatted output.
//   - accessor: no direct access to vm.Space page frames outside the layers
//     that charge fault and mprotect costs.
//   - chargepath: no raw sim.Proc.Deliver/NewMsg outside the charging
//     layers, and no constant non-positive bytes argument to the
//     byte-moving entry points.
//
// Invariants that need execution stay with the runtime tests: the engine's
// baton discipline is checked by the race detector (`go test -race ./...`),
// and the RemoteRead capability gate by the interconnect conformance suite.
//
// Test files (*_test.go) are exempt from every analyzer: they never run on a
// measured path, and the loader does not even parse them.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check. Run inspects a single type-checked package
// and reports findings through the Pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Path     string // package import path
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, located in resolved file:line:col form.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzers returns the full dsmvet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Nondeterminism, MapOrder, Accessor, ChargePath}
}

// Run applies each analyzer to each package and returns all findings sorted
// by position (file, line, column, analyzer). The diagnostics of a broken
// invariant are the product; an analyzer's own error (a nil Info, an
// unresolvable object) aborts the run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Path:     pkg.Path,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// measuredLeaves are the package-path leaf elements of the measured
// packages: code whose execution order or charged costs feed virtual-time
// results. internal/apps and its subpackages are matched by the "apps" path
// element instead.
var measuredLeaves = map[string]bool{
	"sim":          true,
	"core":         true,
	"cashmere":     true,
	"treadmarks":   true,
	"interconnect": true,
	"vm":           true,
}

// MeasuredPackage reports whether the import path names one of the measured
// packages the nondeterminism analyzer patrols: internal/{sim, core,
// cashmere, treadmarks, interconnect, vm} and everything under
// internal/apps.
func MeasuredPackage(path string) bool {
	elems := strings.Split(path, "/")
	for _, e := range elems {
		if e == "apps" {
			return true
		}
	}
	return measuredLeaves[elems[len(elems)-1]]
}

// pathLeaf returns the last element of an import path.
func pathLeaf(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// commentHasMarker reports whether any line of the comment group contains
// the given dsmvet annotation marker.
func commentHasMarker(g *ast.CommentGroup, marker string) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		if strings.Contains(c.Text, marker) {
			return true
		}
	}
	return false
}

// funcObj resolves a call expression to the *types.Func it invokes (package
// functions and methods), or nil for builtins, conversions, and calls of
// function-typed values.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// objPkgPath returns the import path of the package an object belongs to,
// or "" for builtins and universe-scope objects.
func objPkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// recvNamed unwraps a receiver type to its named type.
func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// inspectWithFunc walks every node of the file, passing along the enclosing
// top-level function declaration (nil for package-scope code), so analyzers
// can consult the enclosing function's doc comment for dsmvet annotations.
// Go has no nested function declarations — function literals inside a
// declaration report that declaration — so a per-declaration walk suffices.
func inspectWithFunc(file *ast.File, visit func(n ast.Node, fn *ast.FuncDecl)) {
	for _, decl := range file.Decls {
		fn, _ := decl.(*ast.FuncDecl)
		ast.Inspect(decl, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			visit(n, fn)
			return true
		})
	}
}
