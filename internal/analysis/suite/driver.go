package suite

// driver.go is the shared execution engine behind cmd/emlint's modes
// and the suite tests: one package load fanned out to every applicable
// analyzer. Loading dominates emlint's cost — `go list -export -deps`
// plus typechecking the whole tree — so the driver does it exactly once
// per invocation and reuses the FileSet, ASTs, type info and parsed
// directives across every analyzer. (The previous driver ran the
// suite per package too, but callers that wanted several output formats
// or a baseline pass reloaded; Lint is the one entry point now.)

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// Finding is one diagnostic with its position resolved and its
// analyzer attached — the unit the text/JSON/SARIF renderers and the
// baseline filter all consume.
type Finding struct {
	Analyzer string
	// File is the diagnostic's filename, module-relative when the file
	// lies under the lint root (stable across machines, which the
	// baseline depends on), absolute otherwise.
	File    string
	Line    int
	Column  int
	Message string
}

// Key is the baseline identity of a finding: file, analyzer and message
// — deliberately no line number, so unrelated edits shifting a triaged
// diagnostic up or down do not break the build.
func (f Finding) Key() string {
	return f.File + ": " + f.Analyzer + ": " + f.Message
}

// RunPackage applies analyzers to one typechecked package, sharing one
// directive parse across them, and returns position-resolved findings.
func RunPackage(analyzers []*analysis.Analyzer, fset *token.FileSet,
	files []*ast.File, pkg *types.Package, info *types.Info) ([]Finding, error) {

	dirs := analysis.ParseDirectives(fset, files)
	var findings []Finding
	for _, a := range analyzers {
		name := a.Name
		pass := &analysis.Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
			Directives: dirs,
			Report: func(d analysis.Diagnostic) {
				pos := fset.Position(d.Pos)
				findings = append(findings, Finding{
					Analyzer: name,
					File:     pos.Filename,
					Line:     pos.Line,
					Column:   pos.Column,
					Message:  d.Message,
				})
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	return findings, nil
}

// Lint loads patterns once (one `go list` + one typecheck per matched
// package) and fans every policy-applicable analyzer over the shared
// type-checked set. Findings come back sorted by file/line/column —
// analyzers iterate maps internally, so the sort is what makes runs
// reproducible. dir anchors both the module context and the relative
// filenames; "" means the current directory.
func Lint(dir string, patterns ...string) ([]Finding, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	root := dir
	if root == "" {
		root = "."
	}
	absRoot, err := filepath.Abs(root)
	if err != nil {
		absRoot = root
	}
	var all []Finding
	for _, pkg := range pkgs {
		analyzers := ForPackage(pkg.Path)
		if len(analyzers) == 0 {
			continue
		}
		fs, err := RunPackage(analyzers, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	for i := range all {
		if rel, err := filepath.Rel(absRoot, all[i].File); err == nil && filepath.IsLocal(rel) {
			all[i].File = filepath.ToSlash(rel)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all, nil
}
