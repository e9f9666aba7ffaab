// Command tsperrlint is the repository's static-analysis driver. It runs
// the internal/lint pass suite (mapiterorder, ctxflow, guardedfield,
// detsource) over package patterns, or the netlist structural linter:
//
//	tsperrlint ./...           the pass suite over non-test files
//	tsperrlint -tests ./...    the same, in-package _test.go files included
//	tsperrlint -netlist        structural lint of generated netlists
//
// Exit status: 0 clean, 1 usage or load failure, 2 findings.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tsperr/internal/gen"
	"tsperr/internal/lint"
	"tsperr/internal/netlist"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tsperrlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: tsperrlint [flags] [package patterns]\n")
		fs.PrintDefaults()
	}
	var (
		tests   = fs.Bool("tests", false, "also analyze in-package _test.go files")
		netMode = fs.Bool("netlist", false, "run the structural netlist linter over all generated units instead of Go analysis")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *netMode {
		return runNetlistLint(stdout, stderr)
	}
	return runPackages(fs.Args(), *tests, stdout, stderr)
}

// runPackages runs the pass suite over the packages matched by patterns
// and prints each finding in the file:line:col form.
func runPackages(patterns []string, tests bool, stdout, stderr io.Writer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns, tests)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	cwd, _ := os.Getwd()
	count := 0
	for _, pkg := range pkgs {
		diags, err := lint.RunAnalyzers(pkg, lint.All())
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		for _, d := range diags {
			fmt.Fprintln(stdout, relativize(cwd, d).String())
		}
		count += len(diags)
	}
	if count > 0 {
		fmt.Fprintf(stderr, "tsperrlint: %d finding(s)\n", count)
		return 2
	}
	return 0
}

// relativize shortens absolute diagnostic paths for terminal output.
func relativize(cwd string, d lint.Diagnostic) lint.Diagnostic {
	if cwd == "" || !filepath.IsAbs(d.Pos.Filename) {
		return d
	}
	if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		d.Pos.Filename = rel
	}
	return d
}

// runNetlistLint generates every pipeline unit and runs the structural
// linter over each, printing severity-tagged findings.
func runNetlistLint(w, stderr io.Writer) int {
	units := []struct {
		name string
		n    *netlist.Netlist
	}{
		{"control", gen.Control().N},
		{"adder", gen.Adder().N},
		{"shifter", gen.Shifter().N},
		{"logic", gen.Logic().N},
		{"multiplier", gen.Multiplier().N},
	}
	sort.Slice(units, func(i, j int) bool { return units[i].name < units[j].name })
	count := 0
	for _, u := range units {
		fs := u.n.Lint(netlist.StdLibrary{})
		for _, f := range fs {
			count++
			fmt.Fprintf(w, "%s: %s\n", u.name, f)
		}
		fmt.Fprintf(w, "netlist %-10s %5d gates, %d finding(s)\n", u.name, u.n.NumGates(), len(fs))
	}
	if count > 0 {
		fmt.Fprintf(stderr, "tsperrlint: %d structural finding(s)\n", count)
		return 2
	}
	return 0
}
