package analysis

import (
	"go/ast"
	"go/types"
)

// Annotation markers for the DomainConfined analyzer. The convention
// (documented in DESIGN.md "Machine-checked invariants"):
//
//   - a struct field whose doc or line comment contains
//     "dsmvet:domain-confined" is scheduling state owned by the baton
//     holder — it must never be touched by a goroutine that does not
//     provably hold the engine's baton;
//   - a function or method whose doc comment contains "dsmvet:dispatch" is
//     a declared dispatch path: it runs only while holding the baton (or
//     while the engine is provably quiescent, e.g. Run before any processor
//     goroutine starts).
//
// The analyzer mechanizes the confinement contract of internal/sim's
// Engine scheduling state (DESIGN.md §3a): every syntactic access to a
// confined field must occur inside an annotated dispatch function. The allowlist is
// package-level — the set of annotated declarations in the package that
// declares the field — so adding a new access path forces the author to
// annotate it, and the annotation is the reviewable claim that the new path
// holds the baton.
const (
	ConfinedMarker = "dsmvet:domain-confined"
	DispatchMarker = "dsmvet:dispatch"
)

// DomainConfined enforces that fields annotated dsmvet:domain-confined are
// accessed only from functions annotated dsmvet:dispatch.
var DomainConfined = &Analyzer{
	Name: "domainconfined",
	Doc: "restrict dsmvet:domain-confined fields to dsmvet:dispatch " +
		"functions (the engine's baton-holding scheduling paths)",
	Run: runDomainConfined,
}

func runDomainConfined(pass *Pass) error {
	confined := map[types.Object]bool{}
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !commentHasMarker(field.Doc, ConfinedMarker) && !commentHasMarker(field.Comment, ConfinedMarker) {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						confined[obj] = true
					}
				}
			}
			return true
		})
	}
	if len(confined) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		inspectWithFunc(file, func(n ast.Node, fn *ast.FuncDecl) {
			id, ok := n.(*ast.Ident)
			if !ok || !confined[pass.Info.Uses[id]] {
				return
			}
			if fn != nil && commentHasMarker(fn.Doc, DispatchMarker) {
				return
			}
			where := "package-scope code"
			if fn != nil {
				where = fn.Name.Name
			}
			pass.Reportf(id.Pos(), "domain-confined field %q accessed from %s, which is not an annotated dispatch path: only functions marked %s may touch baton-confined scheduling state", id.Name, where, DispatchMarker)
		})
	}
	return nil
}
