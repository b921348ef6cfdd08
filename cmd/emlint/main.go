// Command emlint is the repository's static-analysis driver: seven
// analyzers (nondeterminism, snapshotcomplete, hotpath, nopanic,
// lockguard, ctxflow, closecheck) that enforce the simulator's
// determinism, checkpoint, allocation, locking and shutdown invariants
// at build time. The usual invocation is
// the standalone mode wired up as `make lint`:
//
//	emlint [-format text|json|sarif] [-o file] [-baseline ci/emlint.baseline] ./...
//
// which loads the matched packages ONCE (`go list -export -deps` plus
// one typecheck per package) and fans every policy-applicable analyzer
// over the shared type-checked set. Findings matching the baseline file
// are reported but do not fail the run; any new finding exits 1.
// `-write-baseline` regenerates the baseline from the current findings
// instead of judging them (`make lint-baseline`).
//
// It also still speaks go vet's vettool protocol
// (`go vet -vettool=$(which emlint) ./...`), replicated from x/tools'
// unitchecker (which is not importable in this offline module):
//
//	-V=full    print a version fingerprint for the build cache; exit 0
//	-flags     print the tool's flags as JSON; exit 0
//	foo.cfg    analyze one compilation unit described by the JSON file
//
// In .cfg mode diagnostics go to stderr as "file:line:col: message" and
// the exit status is 1 if any were reported; go vet relays both. The
// baseline does not apply in vet mode — go vet caches per-package
// results, so suppression must stay in the standalone driver where the
// whole run is visible.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
	"repro/internal/analysis/suite"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("emlint: ")
	args := os.Args[1:]
	switch {
	case len(args) == 1 && args[0] == "-V=full":
		printVersion()
	case len(args) == 1 && args[0] == "-flags":
		fmt.Println("[]")
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		unitcheck(args[0])
	default:
		standalone(args)
	}
}

// printVersion implements -V=full: a stable fingerprint of the
// executable so the go command can cache vet results against the tool's
// identity. The format imitates cmd/go's own tools ("<name> version
// devel ... buildID=<hex>").
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		log.Fatal(err)
	}
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", exe, string(h.Sum(nil)))
}

// vetConfig mirrors the JSON compilation-unit description the go
// command hands a vettool (cmd/go/internal/work's vetConfig).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes the single compilation unit described by cfgFile.
func unitcheck(cfgFile string) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		log.Fatalf("cannot decode vet config %s: %v", cfgFile, err)
	}

	// The go command caches per-package facts through the vetx file and
	// requires it to exist after every run. emlint's analyzers exchange
	// no facts, so the file is always empty.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0666); err != nil {
			log.Fatal(err)
		}
	}

	// ImportPath carries a " [pkg.test]" suffix for test-augmented
	// variants; policy is keyed on the base path.
	importPath := cfg.ImportPath
	if i := strings.Index(importPath, " ["); i >= 0 {
		importPath = importPath[:i]
	}
	analyzers := suite.ForPackage(importPath)
	if cfg.VetxOnly || len(analyzers) == 0 {
		return // dependency pass, or a package outside emlint's policy
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return // the compiler will report it better
			}
			log.Fatal(err)
		}
		files = append(files, f)
	}
	tc := &types.Config{
		Importer:  unitImporter(cfg, fset),
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := analysis.NewInfo()
	pkg, err := tc.Check(importPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return
		}
		log.Fatalf("typechecking %s: %v", importPath, err)
	}

	findings, err := suite.RunPackage(analyzers, fset, files, pkg, info)
	if err != nil {
		log.Fatal(err)
	}
	if len(findings) == 0 {
		return
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s\n", f.File, f.Line, f.Column, f.Message)
	}
	os.Exit(1)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// unitImporter resolves imports exactly as go vet instructs: the import
// path as written is mapped through ImportMap to a package path, whose
// compiler export data is listed in PackageFile.
func unitImporter(cfg *vetConfig, fset *token.FileSet) types.Importer {
	imp := load.NewImporter(fset, cfg.Dir)
	for path, file := range cfg.PackageFile {
		imp.Add(path, file)
	}
	return importerFunc(func(importPath string) (*types.Package, error) {
		if importPath == "unsafe" {
			return types.Unsafe, nil
		}
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		return imp.Import(path)
	})
}

// standalone lints package patterns in a single load: emlint ./...
func standalone(args []string) {
	fs := flag.NewFlagSet("emlint", flag.ExitOnError)
	format := fs.String("format", "text", "output format: text, json or sarif")
	outPath := fs.String("o", "", "write the report to this file instead of the default stream")
	baselinePath := fs.String("baseline", "", "baseline file of triaged findings that do not fail the run")
	writeBaseline := fs.Bool("write-baseline", false, "regenerate the -baseline file from the current findings instead of judging them")
	fs.Parse(args)

	findings, err := suite.Lint("", fs.Args()...)
	if err != nil {
		log.Fatal(err)
	}

	if *writeBaseline {
		if *baselinePath == "" {
			log.Fatal("-write-baseline requires -baseline <file>")
		}
		if err := os.WriteFile(*baselinePath, suite.FormatBaseline(findings), 0666); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "emlint: wrote %d finding(s) to %s\n", len(findings), *baselinePath)
		return
	}

	baseline := suite.ParseBaseline(nil)
	if *baselinePath != "" {
		baseline, err = suite.LoadBaseline(*baselinePath)
		if err != nil {
			log.Fatal(err)
		}
	}
	fresh, baselined := baseline.Split(findings)

	// text goes to stderr by default (the historical contract go vet
	// relays); machine formats go to stdout so they pipe cleanly.
	var w io.Writer = os.Stderr
	if *format != "text" {
		w = os.Stdout
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}

	switch *format {
	case "text":
		for _, f := range fresh {
			fmt.Fprintf(w, "%s:%d:%d: %s (%s)\n", f.File, f.Line, f.Column, f.Message, f.Analyzer)
		}
		if len(baselined) > 0 {
			fmt.Fprintf(w, "emlint: %d baselined finding(s) suppressed (see -baseline file)\n", len(baselined))
		}
	case "json":
		if err := writeJSON(w, fresh, baselined); err != nil {
			log.Fatal(err)
		}
	case "sarif":
		if err := writeSARIF(w, fresh, baselined); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown -format %q (want text, json or sarif)", *format)
	}
	if len(fresh) > 0 {
		// The report above may have gone to -o; the build log still
		// needs the verdict.
		fmt.Fprintf(os.Stderr, "emlint: %d new finding(s)\n", len(fresh))
		os.Exit(1)
	}
}
