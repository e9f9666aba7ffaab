package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapIterOrder flags `for range` loops over maps whose bodies perform
// order-sensitive work: accumulating floating-point values, appending to a
// slice that outlives the loop, or dispatching goroutine/channel work.
// Go randomizes map iteration order, so any of these makes the result (or
// the work schedule) differ between runs — the exact nondeterminism class
// that would break the characterization pipeline's bit-identical
// serial-vs-parallel guarantee (determinism_test.go). Integer counters and
// map-to-map writes are commutative and are deliberately not flagged, and
// an append whose slice is later passed to a sort.*/slices.* call in the
// same function is recognized as the approved collect-sort-range fix
// pattern.
var MapIterOrder = &Analyzer{
	Name: "mapiterorder",
	Doc:  "flag order-sensitive work inside map-range loops (float accumulation, appends, worker dispatch)",
	Run:  runMapIterOrder,
}

func runMapIterOrder(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pass.TypesInfo.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				checkMapRangeBody(pass, fn, rs)
				return true
			})
		}
	}
	return nil
}

// checkMapRangeBody reports order-sensitive statements in the body of a
// map-range loop. Nested map-range loops are visited by the outer Inspect
// on their own, so findings inside them are reported there too — that is
// intentional (both loops need the sorted-keys fix).
func checkMapRangeBody(pass *Pass, fn *ast.FuncDecl, rs *ast.RangeStmt) {
	lo, hi := rs.Pos(), rs.End()
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			switch s.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range s.Lhs {
					if isFloat(pass.TypesInfo.TypeOf(lhs)) && !declaredWithin(pass.TypesInfo, lhs, lo, hi) {
						pass.Reportf(s.Pos(),
							"floating-point accumulation inside map-range loop is iteration-order dependent; sort the keys first")
					}
				}
			case token.ASSIGN, token.DEFINE:
				for i, rhs := range s.Rhs {
					if i >= len(s.Lhs) {
						break
					}
					if !isAppendCall(rhs) || declaredWithin(pass.TypesInfo, s.Lhs[i], lo, hi) {
						continue
					}
					if sortedAfter(pass, fn, rs, s.Lhs[i]) {
						continue // collect-sort-range fix pattern
					}
					pass.Reportf(s.Pos(),
						"append to a slice that outlives a map-range loop records iteration order; sort it (or the keys) first")
				}
			}
		case *ast.GoStmt:
			pass.Reportf(s.Pos(),
				"goroutine launched from a map-range loop dispatches work in iteration order; sort the keys first")
		case *ast.SendStmt:
			pass.Reportf(s.Pos(),
				"channel send inside a map-range loop feeds workers in iteration order; sort the keys first")
		case *ast.CallExpr:
			// Accumulator method calls (numeric.KahanSum.Add and friends):
			// compensated summation is order-sensitive even though plain
			// integer addition would not be.
			if sel, ok := s.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" && len(s.Args) == 1 {
				if isFloat(pass.TypesInfo.TypeOf(s.Args[0])) && !declaredWithin(pass.TypesInfo, sel.X, lo, hi) {
					pass.Reportf(s.Pos(),
						"float accumulator .Add inside map-range loop is iteration-order dependent; sort the keys first")
				}
			}
		}
		return true
	})
}

func isAppendCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}

// sortedAfter reports whether the slice assigned by the append is passed
// to a sort.* or slices.* call after the range loop in the same function —
// the second half of the collect-sort-range pattern, which erases the
// recorded iteration order. The sorted value may be the collector itself
// or a one-hop alias taken after the loop (the bucket idiom:
// `s := buckets[b]; sort.Slice(s, ...)` sorts the bucket through s, since
// the alias shares the backing array). An alias taken before the loop does
// not count — appends inside the loop can reallocate away from it, leaving
// the collected slice unsorted.
func sortedAfter(pass *Pass, fn *ast.FuncDecl, rs *ast.RangeStmt, lhs ast.Expr) bool {
	root := rootIdent(lhs)
	if root == nil {
		return false
	}
	obj := pass.TypesInfo.ObjectOf(root)
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
			return true
		}
		for _, arg := range call.Args {
			id := rootIdent(arg)
			if id == nil {
				continue
			}
			if pass.TypesInfo.ObjectOf(id) == obj || aliasOfAfter(pass, fn, id, obj, rs.End()) {
				found = true
				break
			}
		}
		return !found
	})
	return found
}

// aliasOfAfter reports whether every definition of id's variable in fn was
// taken from obj after pos — a post-loop alias of the collected slice.
func aliasOfAfter(pass *Pass, fn *ast.FuncDecl, id *ast.Ident, obj types.Object, pos token.Pos) bool {
	v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok {
		return false
	}
	defs := localDefs(pass.TypesInfo, fn, v)
	if len(defs) == 0 {
		return false
	}
	for _, d := range defs {
		if d.rhs == nil || d.id.Pos() < pos {
			return false
		}
		r := rootIdent(d.rhs)
		if r == nil || pass.TypesInfo.ObjectOf(r) != obj {
			return false
		}
	}
	return true
}
