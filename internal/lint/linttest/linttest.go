// Package linttest is a minimal analysistest equivalent for the
// internal/lint analyzers: it type-checks a fixture directory, runs one
// analyzer, and diffs its diagnostics against `// want` expectations in
// the fixture source.
//
// Expectation syntax, at the end of the offending line:
//
//	x += v // want `iteration-order dependent`
//
// The backquoted (or double-quoted) string is a regexp matched against
// the diagnostic message; each line may carry one expectation, and every
// diagnostic must be expected and vice versa. Fixtures may import only the
// standard library.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"tsperr/internal/lint"
)

var wantRe = regexp.MustCompile("// want (`([^`]*)`|\"([^\"]*)\")")

// Run type-checks the fixture directory and checks analyzer a against the
// `// want` expectations. pkgPath is the import path the fixture package
// is checked as — scope-sensitive analyzers (ctxflow) switch on it.
func Run(t *testing.T, a *lint.Analyzer, dir, pkgPath string) {
	t.Helper()
	pkg, diags := MustRun(t, a, dir, pkgPath)

	type key struct {
		file string
		line int
	}
	wants := map[key]*regexp.Regexp{}
	matched := map[key]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pat := m[2]
				if pat == "" {
					pat = m[3]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("bad want pattern %q: %v", pat, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants[key{pos.Filename, pos.Line}] = re
			}
		}
	}

	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		re, ok := wants[k]
		if !ok {
			t.Errorf("unexpected diagnostic at %s: %s", d.Pos, d.Message)
			continue
		}
		if !re.MatchString(d.Message) {
			t.Errorf("diagnostic at %s does not match %q: %s", d.Pos, re, d.Message)
			continue
		}
		matched[k] = true
	}
	var missing []string
	for k := range wants {
		if !matched[k] {
			missing = append(missing, fmt.Sprintf("%s:%d", k.file, k.line))
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("expected diagnostic at %s, got none", m)
	}
}

// MustRun loads the fixture and runs the analyzer, returning the package
// and raw diagnostics without diffing them against the want comments. Tests
// use it to assert scope behavior (e.g. an analyzer staying silent on an
// out-of-scope package whose source still carries wants).
func MustRun(t *testing.T, a *lint.Analyzer, dir, pkgPath string) (*lint.Package, []lint.Diagnostic) {
	t.Helper()
	pkg, err := loadFixture(dir, pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := lint.RunAnalyzers(pkg, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	return pkg, diags
}

// loadFixture parses and type-checks every .go file of dir as one package
// with import path pkgPath.
func loadFixture(dir, pkgPath string) (*lint.Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var names []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &lint.Package{
		PkgPath: pkgPath,
		Dir:     dir,
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}
