// Package load parses and typechecks Go packages for the emlint
// drivers without go/packages (unavailable offline). It resolves
// imported-package type information through compiler export data: a
// `go list -export -deps -json` invocation makes the toolchain write
// export files into the build cache and reports their paths, and the
// stdlib gc importer (go/importer.ForCompiler with a lookup function)
// reads them back — the same mechanism `go vet` feeds its analyzers.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
)

// listCalls counts goList invocations process-wide. The suite's
// single-load driver test asserts linting a package tree costs exactly
// one `go list` run, which is the whole point of sharing the
// type-checked set across analyzers.
var listCalls atomic.Int64

// ListCalls returns the number of `go list` invocations so far.
func ListCalls() int64 { return listCalls.Load() }

// Package is one parsed, typechecked package.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Name       string
	DepOnly    bool
}

// goList runs `go list -export -deps -json=...` in dir for the given
// patterns and decodes the JSON stream.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	listCalls.Add(1)
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Name,DepOnly",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, ee.Stderr)
		}
		return nil, fmt.Errorf("go list %v: %v", patterns, err)
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", patterns, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Importer resolves imports through compiler export data, running
// `go list -export` lazily for paths it has not seen. It is safe for
// use from a single goroutine per typecheck (types.Config serialises
// Import calls itself); the internal mutex guards the lazily grown
// path→file map across separately typechecked packages.
type Importer struct {
	fset *token.FileSet
	dir  string

	mu      sync.Mutex
	exports map[string]string
	imp     types.Importer
}

// NewImporter returns an export-data importer rooted at dir (the
// directory whose module context `go list` runs in; "" = cwd).
func NewImporter(fset *token.FileSet, dir string) *Importer {
	e := &Importer{fset: fset, dir: dir, exports: make(map[string]string)}
	e.imp = importer.ForCompiler(fset, "gc", e.lookup)
	return e
}

// Add registers a known export file for path, avoiding a go list call.
func (e *Importer) Add(path, exportFile string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if exportFile != "" {
		e.exports[path] = exportFile
	}
}

func (e *Importer) lookup(path string) (io.ReadCloser, error) {
	e.mu.Lock()
	file, ok := e.exports[path]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("no export data registered for %q", path)
	}
	return os.Open(file)
}

// Import implements types.Importer.
func (e *Importer) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	e.mu.Lock()
	_, ok := e.exports[path]
	e.mu.Unlock()
	if !ok {
		pkgs, err := goList(e.dir, []string{path})
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			e.Add(p.ImportPath, p.Export)
		}
	}
	return e.imp.Import(path)
}

// TypeCheck parses and typechecks one package from explicit file paths
// (used by analysistest on fixture directories).
func TypeCheck(fset *token.FileSet, imp types.Importer, path string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typechecking %s: %v", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: pkg, Info: info}, nil
}

// Load lists patterns in dir, typechecks every matched (non-dependency)
// package, and returns them in `go list` order. Test files are not
// loaded: `go list`'s GoFiles excludes them, matching emlint's linting
// contract.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := NewImporter(fset, dir)
	for _, p := range listed {
		imp.Add(p.ImportPath, p.Export)
	}
	var out []*Package
	for _, p := range listed {
		if p.DepOnly || len(p.GoFiles) == 0 {
			continue
		}
		var filenames []string
		for _, f := range p.GoFiles {
			filenames = append(filenames, filepath.Join(p.Dir, f))
		}
		pkg, err := TypeCheck(fset, imp, p.ImportPath, filenames)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}
