package lint

import (
	"go/ast"
	"go/types"
)

// SlabAlias machine-checks the scratch-slab aliasing rules of DESIGN.md
// §13/§14: a value taken from a recycling pool (cpu data-memory slabs, the
// activity simulator's trace storage) is owned by the pool and is recycled
// — and rewritten — as soon as the owner's Release runs. Any alias that
// survives Release reads torn data from an unrelated later run.
//
// A value is slab-derived when it flows (per the escape lattice in
// escape.go) from a (*sync.Pool).Get call, or from a call to a same-package
// provider — a function that itself returns a slab-derived value (computed
// as an intra-package fixpoint, so getMem/getScratch-style accessors are
// recognized without annotation). Functions that touch the sync.Pool
// directly (Get or Put) ARE the pool layer and are exempt: they mint and
// retire slabs by definition.
//
// Everywhere else, a slab-derived value must not
//
//   - be returned, unless the returned type carries a Release method (the
//     owner object — CPU, Trace — whose lifecycle ends at Release);
//   - be stored into a field of a type without a Release method, into a
//     package-level variable, or into a composite literal of a type
//     without Release;
//   - be sent on a channel, or
//   - be captured by a closure that escapes the function (returned, stored
//     into a field/global, or launched as a goroutine). A closure passed
//     as a plain call argument is treated as synchronous and is allowed.
//
// Copying first is the approved fix and is recognized: append onto a fresh
// base (append([]T(nil), s...)) and copy into a fresh slice produce clean
// values (see escape.go's copy-breaking rules).
var SlabAlias = &Analyzer{
	Name: "slabalias",
	Doc:  "flag pool-derived scratch values that escape past their owner's Release (field stores, returns, escaping closures)",
	Run:  runSlabAlias,
}

func runSlabAlias(pass *Pass) error {
	fns := packageFuncs(pass)
	if len(fns) == 0 {
		return nil
	}
	poolLayer := map[*ast.FuncDecl]bool{}
	for _, fn := range fns {
		if touchesSyncPool(pass, fn) {
			poolLayer[fn] = true
		}
	}

	// Provider fixpoint: a provider returns a slab-derived value. Seeds are
	// sync.Pool.Get results and calls to already-known providers.
	providers := map[types.Object]bool{}
	declOf := map[types.Object]*ast.FuncDecl{}
	for _, fn := range fns {
		if obj := pass.TypesInfo.Defs[fn.Name]; obj != nil {
			declOf[obj] = fn
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			obj := pass.TypesInfo.Defs[fn.Name]
			if obj == nil || providers[obj] {
				continue
			}
			taint := slabTaint(pass, fn, providers)
			returnsSlab := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				r, ok := n.(*ast.ReturnStmt)
				if !ok {
					return true
				}
				for _, res := range r.Results {
					if taint.ExprDerives(res) {
						returnsSlab = true
					}
				}
				return true
			})
			if returnsSlab {
				providers[obj] = true
				changed = true
			}
		}
	}

	for _, fn := range fns {
		if poolLayer[fn] {
			continue
		}
		checkSlabEscapes(pass, fn, slabTaint(pass, fn, providers))
	}
	return nil
}

func packageFuncs(pass *Pass) []*ast.FuncDecl {
	var fns []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				fns = append(fns, fn)
			}
		}
	}
	return fns
}

// touchesSyncPool reports whether fn directly calls Get or Put on a
// sync.Pool — the defining property of the pool layer.
func touchesSyncPool(pass *Pass, fn *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if isSyncPoolCall(pass.TypesInfo, call, "Get") || isSyncPoolCall(pass.TypesInfo, call, "Put") {
			found = true
		}
		return !found
	})
	return found
}

func isSyncPoolCall(info *types.Info, call *ast.CallExpr, method string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "Pool" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync"
}

// slabTaint builds the taint state for fn with slab seeds: sync.Pool.Get
// calls and calls to provider functions.
func slabTaint(pass *Pass, fn *ast.FuncDecl, providers map[types.Object]bool) *Taint {
	flow := pass.FlowOf(fn)
	return NewTaint(flow, func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		if isSyncPoolCall(pass.TypesInfo, call, "Get") {
			return true
		}
		obj := calleeObject(pass.TypesInfo, call)
		return obj != nil && providers[obj]
	})
}

// hasReleaseMethod reports whether t (or *t) has a Release method — the
// marker of a pool-owner type whose lifecycle the §13 contract covers.
func hasReleaseMethod(pkg *types.Package, t types.Type) bool {
	if t == nil {
		return false
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		t = types.NewPointer(t)
	}
	obj, _, _ := types.LookupFieldOrMethod(t, false, pkg, "Release")
	_, ok := obj.(*types.Func)
	return ok
}

func checkSlabEscapes(pass *Pass, fn *ast.FuncDecl, taint *Taint) {
	info := pass.TypesInfo
	// Collect objects with at least one tainted def, for capture checks.
	taintedObjs := map[types.Object]bool{}
	for _, d := range taint.TaintedDefs() {
		taintedObjs[d.Obj] = true
	}

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // handled at the escape site below
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				reportEscapingClosure(pass, res, taintedObjs, "returned")
				e := ast.Unparen(res)
				if u, ok := e.(*ast.UnaryExpr); ok {
					e = ast.Unparen(u.X)
				}
				if _, isLit := e.(*ast.CompositeLit); isLit {
					continue // the composite-literal check owns this site
				}
				if taint.ExprDerives(res) && !hasReleaseMethod(pass.Pkg, info.TypeOf(res)) {
					pass.Reportf(res.Pos(),
						"slab-derived value returned: the pool rewrites it after Release; copy it first (append([]T(nil), s...)) or return the owning object (slab aliasing rules, DESIGN.md §14)")
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				reportEscapingClosure(pass, rhs, taintedObjs, escapeKindOfLHS(pass, n.Lhs[i]))
				if !taint.ExprDerives(rhs) {
					continue
				}
				checkSlabStore(pass, n.Lhs[i], rhs)
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t == nil || hasReleaseMethod(pass.Pkg, t) {
				return true
			}
			for _, el := range n.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if taint.ExprDerives(v) && !hasReleaseMethod(pass.Pkg, info.TypeOf(v)) {
					pass.Reportf(v.Pos(),
						"slab-derived value stored into a %s literal, which has no Release method; the alias outlives the pool's recycle (copy it first)", typeName(t))
				}
			}
		case *ast.SendStmt:
			if taint.ExprDerives(n.Value) {
				pass.Reportf(n.Value.Pos(),
					"slab-derived value sent on a channel escapes to another goroutine past Release; send a copy")
			}
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				if id := capturedTainted(info, lit, taintedObjs); id != nil {
					pass.Reportf(lit.Pos(),
						"goroutine closure captures slab-derived %q and may outlive Release; pass a copy instead", id.Name)
				}
			}
			for _, arg := range n.Call.Args {
				if taint.ExprDerives(arg) {
					pass.Reportf(arg.Pos(),
						"slab-derived value handed to a goroutine may outlive Release; pass a copy instead")
				}
			}
			return false
		}
		return true
	}
	ast.Inspect(fn.Body, visit)
}

// checkSlabStore reports stores of slab-derived values to locations that
// outlive the function: fields of non-owner types and package-level
// variables. Stores through local aliases stay intra-procedural and are
// covered by the return/closure checks instead.
func checkSlabStore(pass *Pass, lhs, rhs ast.Expr) {
	e := ast.Unparen(lhs)
	for {
		if ix, ok := e.(*ast.IndexExpr); ok {
			e = ast.Unparen(ix.X)
			continue
		}
		if st, ok := e.(*ast.StarExpr); ok {
			e = ast.Unparen(st.X)
			continue
		}
		break
	}
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
			recv := pass.TypesInfo.TypeOf(e.X)
			if !hasReleaseMethod(pass.Pkg, recv) {
				pass.Reportf(rhs.Pos(),
					"slab-derived value stored to field %s of a type without a Release method; the alias outlives the pool's recycle (copy it, or give %s the Release lifecycle)",
					e.Sel.Name, typeName(recv))
			}
		}
	case *ast.Ident:
		if obj, ok := pass.TypesInfo.Uses[e].(*types.Var); ok && obj.Parent() == pass.Pkg.Scope() {
			pass.Reportf(rhs.Pos(),
				"slab-derived value stored to package-level %s escapes every Release; copy it first", e.Name)
		}
	}
}

// escapeKindOfLHS classifies an assignment target for closure-escape
// reporting: "" when storing there keeps the closure local.
func escapeKindOfLHS(pass *Pass, lhs ast.Expr) string {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return "stored to a field"
		}
	case *ast.Ident:
		if obj, ok := pass.TypesInfo.Uses[e].(*types.Var); ok && obj.Parent() == pass.Pkg.Scope() {
			return "stored to a package-level variable"
		}
	}
	return ""
}

// reportEscapingClosure flags a func literal at an escape site (return or
// field/global store) that captures a slab-derived variable.
func reportEscapingClosure(pass *Pass, e ast.Expr, taintedObjs map[types.Object]bool, how string) {
	if how == "" {
		return
	}
	lit, ok := ast.Unparen(e).(*ast.FuncLit)
	if !ok {
		return
	}
	if id := capturedTainted(pass.TypesInfo, lit, taintedObjs); id != nil {
		pass.Reportf(lit.Pos(),
			"closure %s captures slab-derived %q and outlives the pool's Release; copy before capturing", how, id.Name)
	}
}

// capturedTainted returns an identifier inside lit that reads a variable
// with a slab-derived definition, or nil.
func capturedTainted(info *types.Info, lit *ast.FuncLit, taintedObjs map[types.Object]bool) *ast.Ident {
	var hit *ast.Ident
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if hit != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && taintedObjs[obj] {
				hit = id
			}
		}
		return true
	})
	return hit
}

// typeName renders a type compactly for diagnostics.
func typeName(t types.Type) string {
	if t == nil {
		return "unknown"
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
