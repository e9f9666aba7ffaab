package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// GuardedField checks "guarded by" annotations: a struct field or
// package-level variable whose doc or line comment contains
//
//	guarded by <mutexName>
//
// may only be read or written in functions that also lock that mutex
// (<something>.<mutexName>.Lock(), <mutexName>.RLock(), ...). This is a
// flow-insensitive check — it catches the "forgot the lock entirely"
// class of memo-map races before the race detector ever sees an
// interleaving, not lock/access ordering bugs within a function.
//
// Composite-literal keys are exempt: constructors initialize guarded
// fields on objects no other goroutine can reach yet.
var GuardedField = &Analyzer{
	Name: "guardedfield",
	Doc:  "flag access to 'guarded by <mu>' fields and vars in functions that never lock <mu>",
	Run:  runGuardedField,
}

// guardedRe matches the annotation; the mutex name may wrap onto the next
// comment line, which CommentGroup.Text joins with a newline.
var guardedRe = regexp.MustCompile(`guarded by\s+(\w+)`)

// guardTarget couples a guarded object with the name of its mutex.
type guardTarget struct {
	obj types.Object
	mu  string
}

func runGuardedField(pass *Pass) error {
	targets := collectGuardTargets(pass)
	if len(targets) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			locked := lockedMutexNames(fn.Body)
			checkGuardedUses(pass, fn, targets, locked)
		}
	}
	return nil
}

// collectGuardTargets finds annotated struct fields and package-level vars.
func collectGuardTargets(pass *Pass) map[types.Object]string {
	targets := map[types.Object]string{}
	addNames := func(names []*ast.Ident, comments ...*ast.CommentGroup) {
		mu := ""
		for _, cg := range comments {
			if cg == nil {
				continue
			}
			if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
				mu = m[1]
				break
			}
		}
		if mu == "" {
			return
		}
		for _, name := range names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				targets[obj] = mu
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec: // package-level (or any) var annotation
					// An unparenthesized single-spec declaration hangs its
					// doc comment on the GenDecl, not the spec.
					specDocs := []*ast.CommentGroup{s.Doc, s.Comment}
					if len(gd.Specs) == 1 {
						specDocs = append(specDocs, gd.Doc)
					}
					addNames(s.Names, specDocs...)
				case *ast.TypeSpec:
					st, ok := s.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						addNames(field.Names, field.Doc, field.Comment)
					}
				}
			}
		}
	}
	return targets
}

// lockedMutexNames returns the set of terminal selector names on which a
// Lock/RLock call appears anywhere in body: s.readyMu.Lock() -> "readyMu",
// fwMu.RLock() -> "fwMu". Matching is by mutex name, not full selector
// chain; the annotation names the mutex, so one name per guarded object is
// the contract.
func lockedMutexNames(body *ast.BlockStmt) map[string]bool {
	locked := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		switch recv := ast.Unparen(sel.X).(type) {
		case *ast.Ident:
			locked[recv.Name] = true
		case *ast.SelectorExpr:
			locked[recv.Sel.Name] = true
		}
		return true
	})
	return locked
}

// checkGuardedUses reports guarded-object uses in fn when fn never locks
// the guarding mutex.
func checkGuardedUses(pass *Pass, fn *ast.FuncDecl, targets map[types.Object]string, locked map[string]bool) {
	// Track composite-literal key identifiers, which are initialization,
	// not shared access.
	litKeys := map[*ast.Ident]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if kv, ok := n.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				litKeys[id] = true
			}
		}
		return true
	})
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || litKeys[id] {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		mu, guarded := targets[obj]
		if !guarded || locked[mu] {
			return true
		}
		pass.Reportf(id.Pos(),
			"%s is guarded by %s, but %s never locks %s",
			id.Name, mu, fn.Name.Name, mu)
		return true
	})
}
