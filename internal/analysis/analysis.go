// Package analysis is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis core: just enough Analyzer / Pass
// machinery to host this repository's custom static checks (the emlint
// suite) without importing x/tools, which this build environment cannot
// fetch. The API mirrors the upstream shape on purpose — an Analyzer
// here is a drop-in candidate for the real framework if the dependency
// ever becomes available — but only the subset the emlint analyzers
// need is implemented: no facts, no analyzer-to-analyzer results, no
// suggested fixes.
//
// The drivers are cmd/emlint (one load of the matched packages, every
// analyzer fanned over them) and the analysistest package (golden-file
// tests over testdata fixtures).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and test output. It
	// must be a valid Go identifier.
	Name string
	// Doc is the one-paragraph description printed by `emlint help`.
	Doc string
	// Run applies the analyzer to one package. Diagnostics go through
	// pass.Report; a non-nil error aborts the whole run (reserved for
	// internal failures, not findings).
	Run func(*Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// Pass is the interface between one analyzer and one package. All
// fields are populated by the driver before Run is called.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Directives holds the package's parsed //emlint:... annotations.
	Directives *Directives

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. The emlint
// invariants guard the simulator's library code; tests are free to use
// maps, panics (via t.Fatal machinery) and ad-hoc allocation.
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	if f == nil {
		return false
	}
	name := f.Name()
	return len(name) >= len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}

// NewInfo returns a types.Info with every map the analyzers consult
// allocated. Drivers share one Info per package across all analyzers.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// FuncOf resolves a call expression to the *types.Func it statically
// invokes, or nil for indirect calls (function values, interface
// methods) and builtins.
func FuncOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			fn, _ := info.Uses[id].(*types.Func)
			return fn
		}
	}
	return nil
}

// RootIdent peels index, selector, star and paren expressions off an
// assignable expression and returns the identifier at its base, or nil
// (e.g. for function-call results).
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// DeclaredWithin reports whether obj's declaration lies inside the
// half-open source interval [node.Pos(), node.End()). Used to decide
// whether a write inside a loop or closure escapes it.
func DeclaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && obj.Pos() != token.NoPos &&
		obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}
