package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// DetSource enforces the determinism contract of the result-determining
// packages (DESIGN.md §14): every bit of an estimate must be a function of
// the request and the model fingerprint, never of the wall clock, the
// process, or the scheduler. In the packages listed in DetSourceScope it
// reports, in non-test files:
//
//  1. any call of time.Now — wall-clock input makes reports irreproducible
//     and breaks the cluster's bit-identity contract;
//  2. any call of a package-level math/rand (or math/rand/v2) function —
//     the global generator is shared, racy, and (v2) nondeterministically
//     seeded; all sampling goes through numeric.RNG;
//  3. a NewRNG seed that does not flow from configuration: the argument
//     must derive — through every definition of each local variable it
//     reads — only from constants, parameters, struct fields, package-level
//     variables, and seed-derivation helpers (functions whose name mentions
//     seed, mix, hash, splitmix, or fingerprint, e.g. montecarlo.chunkSeed).
//     Ad-hoc seeds (loop indices, lengths, clocks) decorrelate chunk
//     streams or break reproducibility;
//  4. map-keyed nondeterminism feeding results: returning from inside a
//     map-range loop an expression involving the iteration variables, or
//     assigning an iteration variable to a longer-lived "picked" slot —
//     both select a value by map iteration order.
//
// Tests are exempt (they assert results rather than produce them, and
// deterministic local generators in oracles are fine); the analyzer skips
// _test.go files.
var DetSource = &Analyzer{
	Name: "detsource",
	Doc:  "flag wall-clock, global math/rand, ad-hoc RNG seeds and map-order value selection in result-determining packages",
	Run:  runDetSource,
}

// DetSourceScope lists the result-determining packages: everything whose
// output lands bit-for-bit in a report, a cached model, or a cluster chunk.
var DetSourceScope = []string{
	"tsperr/internal/dta",
	"tsperr/internal/montecarlo",
	"tsperr/internal/numeric",
	"tsperr/internal/cpu",
	"tsperr/internal/cfg",
	"tsperr/internal/errormodel",
	"tsperr/internal/dist",
	"tsperr/internal/mlpred",
	"tsperr/internal/surrogate",
}

// seedHelperRe recognizes seed-derivation helpers by name: chunkSeed,
// SplitMix64, hashSpec, Fingerprint and friends.
var seedHelperRe = regexp.MustCompile(`(?i)seed|splitmix|mix|hash|fingerprint`)

func runDetSource(pass *Pass) error {
	inScope := false
	for _, p := range DetSourceScope {
		if pass.Pkg.Path() == p {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkDetSourceFunc(pass, fn)
		}
	}
	return nil
}

func checkDetSourceFunc(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkDetCall(pass, fn, n)
		case *ast.RangeStmt:
			t := pass.TypesInfo.TypeOf(n.X)
			if t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					checkMapOrderSelection(pass, n)
				}
			}
		}
		return true
	})
}

func checkDetCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	// time.Now and package-level math/rand functions.
	if obj := calleeObject(pass.TypesInfo, call); obj != nil {
		if f, ok := obj.(*types.Func); ok && f.Pkg() != nil {
			sig, _ := f.Type().(*types.Signature)
			pkgLevel := sig != nil && sig.Recv() == nil
			switch f.Pkg().Path() {
			case "time":
				if pkgLevel && f.Name() == "Now" {
					pass.Reportf(call.Pos(),
						"time.Now in a result-determining package: wall-clock input makes estimates irreproducible (determinism contract, DESIGN.md §14)")
				}
			case "math/rand", "math/rand/v2":
				if pkgLevel {
					pass.Reportf(call.Pos(),
						"global math/rand.%s in a result-determining package: shared, nondeterministically scheduled stream; use numeric.NewRNG with an explicitly derived seed", f.Name())
				}
			}
		}
	}

	// NewRNG seed provenance.
	if calleeName(call) != "NewRNG" || len(call.Args) != 1 {
		return
	}
	if !seedOK(pass, fn, call.Args[0], 0) {
		pass.Reportf(call.Args[0].Pos(),
			"RNG seed does not flow from configuration or a seed-derivation helper; derive per-chunk seeds through the SplitMix64 mix (chunkSeed pattern), not ad-hoc expressions")
	}
}

// seedOK reports whether the seed expression bottoms out only in approved
// provenance: constants, parameters/receivers, struct fields, package-level
// variables, and calls to seed-derivation helpers. A local variable passes
// when every one of its definitions does (localDefs); one the body never
// defines, such as a closure parameter, is the caller's provenance.
func seedOK(pass *Pass, fn *ast.FuncDecl, e ast.Expr, depth int) bool {
	if depth > 12 {
		return false // cyclic or pathological chain: refuse to vouch
	}
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		return true // compile-time constant
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return seedOK(pass, fn, e.X, depth)
	case *ast.UnaryExpr:
		return seedOK(pass, fn, e.X, depth)
	case *ast.BinaryExpr:
		// Mixing arithmetic is fine when the operands themselves are
		// approved — that is what a derivation helper's body looks like.
		return seedOK(pass, fn, e.X, depth) && seedOK(pass, fn, e.Y, depth)
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[e]; ok {
			return sel.Kind() == types.FieldVal // spec.Seed-style configuration
		}
		// Qualified identifier: package-level var or const.
		if obj := pass.TypesInfo.Uses[e.Sel]; obj != nil {
			switch obj.(type) {
			case *types.Const, *types.Var:
				return true
			}
		}
		return false
	case *ast.Ident:
		obj, ok := pass.TypesInfo.Uses[e].(*types.Var)
		if !ok {
			return false
		}
		if isParamOf(fn, pass.TypesInfo, obj) {
			return true // the caller derived it; provenance is theirs
		}
		if obj.Parent() == pass.Pkg.Scope() {
			return true // package-level variable: configuration
		}
		for _, d := range localDefs(pass.TypesInfo, fn, obj) {
			if d.rhs == nil || !seedOK(pass, fn, d.rhs, depth+1) {
				return false // a range variable or bare declaration is index-like
			}
		}
		return true
	case *ast.CallExpr:
		if tv, ok := pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() {
			if len(e.Args) == 1 {
				return seedOK(pass, fn, e.Args[0], depth)
			}
			return false
		}
		return seedHelperRe.MatchString(calleeName(e))
	}
	return false
}

// isParamOf reports whether obj is a parameter, receiver, or named result
// of fn.
func isParamOf(fn *ast.FuncDecl, info *types.Info, obj *types.Var) bool {
	var fields []*ast.Field
	if fn.Recv != nil {
		fields = append(fields, fn.Recv.List...)
	}
	if fn.Type.Params != nil {
		fields = append(fields, fn.Type.Params.List...)
	}
	if fn.Type.Results != nil {
		fields = append(fields, fn.Type.Results.List...)
	}
	for _, field := range fields {
		for _, name := range field.Names {
			if info.Defs[name] == obj {
				return true
			}
		}
	}
	return false
}

// checkMapOrderSelection flags returns and pick-one assignments that let
// map iteration order choose a result.
func checkMapOrderSelection(pass *Pass, rs *ast.RangeStmt) {
	loopVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			loopVars[obj] = true
		} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
			loopVars[obj] = true
		}
	}
	if len(loopVars) == 0 {
		return
	}
	usesLoopVar := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && loopVars[pass.TypesInfo.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}
	lo, hi := rs.Pos(), rs.End()
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false // a closure's returns are its own
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if usesLoopVar(res) {
					pass.Reportf(s.Pos(),
						"return inside a map-range loop selects a value by map iteration order; iterate sorted keys (or collect and reduce deterministically)")
					break
				}
			}
		case *ast.AssignStmt:
			if s.Tok != token.ASSIGN {
				return true
			}
			for i, rhs := range s.Rhs {
				if i >= len(s.Lhs) {
					break
				}
				root := rootIdent(ast.Unparen(rhs))
				if root == nil || !loopVars[pass.TypesInfo.Uses[root]] {
					continue
				}
				lhs := s.Lhs[i]
				if declaredWithin(pass.TypesInfo, lhs, lo, hi) {
					continue
				}
				// Keyed writes (out[k] = v, arr[k] = v) are set-semantics.
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if usesLoopVar(ix.Index) {
						continue
					}
				}
				pass.Reportf(s.Pos(),
					"assigning a map iteration variable to a longer-lived slot picks a value by iteration order; iterate sorted keys instead")
			}
		}
		return true
	})
}

// calleeObject resolves the object a call invokes, through selectors and
// parens.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// calleeName is the terminal name of a call's function expression.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
