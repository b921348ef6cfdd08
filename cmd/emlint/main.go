// Command emlint is the repository's static-analysis driver: four
// analyzers (nopanic, lockguard, ctxflow, closecheck) that enforce the
// simulator's error-path, locking, shutdown and file-write invariants
// at build time. `make lint` runs it as
//
//	emlint [-format text|json|sarif] [-o file] [-baseline ci/emlint.baseline] ./...
//
// which loads the matched packages ONCE (`go list -export -deps` plus
// one typecheck per package) and fans every policy-applicable analyzer
// over the shared type-checked set. Findings matching the baseline file
// are reported but do not fail the run; any new finding exits 1.
// `-write-baseline` regenerates the baseline from the current findings
// instead of judging them (`make lint-baseline`).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/analysis/suite"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("emlint: ")
	fs := flag.NewFlagSet("emlint", flag.ExitOnError)
	format := fs.String("format", "text", "output format: text, json or sarif")
	outPath := fs.String("o", "", "write the report to this file instead of the default stream")
	baselinePath := fs.String("baseline", "", "baseline file of triaged findings that do not fail the run")
	writeBaseline := fs.Bool("write-baseline", false, "regenerate the -baseline file from the current findings instead of judging them")
	fs.Parse(os.Args[1:])

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

	// text goes to stderr by default, as compilers report; machine
	// formats go to stdout so they pipe cleanly.
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
