// Command kenlint is the repository's custom static-analysis gate: it runs
// the internal/lint analyzer suite — obshandle (metric-handle discipline)
// and locksafe (locks held across blocking work), the two invariants no
// test catches on every run — over the module and exits non-zero when any
// diagnostic survives.
// See docs/LINT.md for the analyzer catalogue and the //lint:ignore escape
// hatch.
//
// Usage:
//
//	kenlint [-list] [packages]
//
// Package patterns are module-relative ("./...", "./cmd/...", "internal/
// engine"); the default is the whole module.
package main

import (
	"flag"
	"fmt"
	"os"

	"ken/internal/lint"
	"ken/internal/lint/driver"
)

func main() {
	list := flag.Bool("list", false, "print the analyzer catalogue and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: kenlint [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%s\n\t%s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := driver.NewLoader(wd)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}
	diags, err := driver.Run(analyzers, pkgs)
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "kenlint: %d issue(s) in %d package(s) checked\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "kenlint: %v\n", err)
	os.Exit(2)
}
