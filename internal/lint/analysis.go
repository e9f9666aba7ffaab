// Package lint implements the repository's custom static-analysis passes
// and the minimal driver framework they run on. The repo has two machine-
// checked contracts that ordinary `go vet` cannot see: parallel
// characterization must stay bit-identical to serial execution (no
// map-iteration-order-dependent accumulation, no unguarded memo access, no
// wall-clock or ad-hoc-seeded input to a result), and context cancellation
// must thread through every long-running scenario/instruction/cycle loop.
// The four analyzers here enforce both; a finding cannot be suppressed.
//
// The framework mirrors the golang.org/x/tools/go/analysis API surface
// (Analyzer, Pass, Diagnostic) but is built purely on the standard library
// (go/ast, go/types, go/importer), because this module is dependency-free
// by policy. cmd/tsperrlint is the driver; it runs the suite over package
// patterns.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding of one analyzer at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the conventional file:line:col form used by vet tools.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one static-analysis pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// All returns the full pass suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{MapIterOrder, CtxFlow, GuardedField, DetSource}
}

// RunAnalyzers applies the analyzers to one loaded package and returns their
// diagnostics sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
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

// ---- shared type and syntax helpers used by several analyzers ----

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isFloat reports whether t's underlying type is a floating-point kind.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// rootIdent returns the leftmost identifier of a selector/index chain
// (x in x.f[i].g), or nil when the chain does not start at an identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether the object bound to the leftmost
// identifier of lhs was declared inside [lo, hi) — i.e. the variable is
// local to that region (typically a loop body) rather than an accumulator
// that outlives it.
func declaredWithin(info *types.Info, lhs ast.Expr, lo, hi token.Pos) bool {
	id := rootIdent(lhs)
	if id == nil {
		return false
	}
	obj := info.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() >= lo && obj.Pos() < hi
}

// def is one definition of a local variable: the identifier it binds and the
// expression it is given. rhs is nil where the body gives no expression — a
// range variable, a bare declaration, ++ or --. A compound assignment
// (x += e) records e; a multi-value assignment records the one call for
// every name it binds.
type def struct {
	id  *ast.Ident
	rhs ast.Expr
}

// localDefs returns every definition of v in fn's body, closures included,
// in source order. The lookup is flow-insensitive: it answers what v can be
// given anywhere in the function, not which definitions reach a particular
// use, so a check that accepts v only when every definition passes is
// conservative. Parameters have no definition in the body.
func localDefs(info *types.Info, fn *ast.FuncDecl, v *types.Var) []def {
	var out []def
	add := func(lhs, rhs ast.Expr) {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && info.ObjectOf(id) == v {
			out = append(out, def{id, rhs})
		}
	}
	// value picks the expression given to the i-th of n names.
	value := func(values []ast.Expr, i, n int) ast.Expr {
		switch len(values) {
		case n:
			return values[i]
		case 1:
			return values[0]
		}
		return nil
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				add(lhs, value(n.Rhs, i, len(n.Lhs)))
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				add(name, value(n.Values, i, len(n.Names)))
			}
		case *ast.IncDecStmt:
			add(n.X, nil)
		case *ast.RangeStmt:
			add(n.Key, nil)
			add(n.Value, nil)
		}
		return true
	})
	return out
}
