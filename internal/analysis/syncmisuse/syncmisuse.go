// Package syncmisuse checks the concurrency invariants the engine and
// internal/parallel rely on:
//
//   - no sync primitive (Mutex, RWMutex, WaitGroup, Once, Cond, Pool,
//     Map) or sync/atomic value type (Int64, Pointer[T], Value, ...) is
//     copied by value — through parameters, receivers, plain
//     assignments, or range clauses. A copied sync.Pool silently splits
//     the pool; a copied Mutex silently stops excluding; a copied
//     atomic counter silently forks its count. This covers the
//     internal/obs instruments (Counter, Gauge, Histogram), which embed
//     atomics and must be shared by pointer.
//   - goroutine closures do not write shared state unsynchronised: a
//     `go func(){...}` body may not assign to captured variables or
//     their fields, may not write captured maps, and may only write
//     captured slices through an index that is provably disjoint per
//     goroutine (the index is closure-local, or a per-iteration loop
//     variable that is never mutated outside the closure — the
//     out[i] = r pattern used by parallel.MapSource). Bumping a shared
//     obs instrument (st.Items.Inc(), counter.Add(n)) is the sanctioned
//     way to aggregate across workers: it is a method call on an atomic,
//     not an assignment, so it never trips these checks.
//
// `//slj:sync-ok` on the flagged line (or the line above) suppresses a
// finding whose safety is established by some protocol the analyzer
// cannot see (e.g. a happens-before edge through a channel close).
//
// The goroutine checks are intraprocedural and syntactic: writes behind
// helper closures or mutex-guarded sections in callees are out of scope
// and remain the race detector's job (`make race` / `make test-race`).
package syncmisuse

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Annotation is the suppression annotation honoured by this analyzer.
const Annotation = "sync-ok"

// Analyzer flags copied sync primitives and unsynchronised shared writes
// in goroutine closures.
var Analyzer = &analysis.Analyzer{
	Name: "syncmisuse",
	Doc:  "check lock/pool copy-by-value and goroutine shared-write discipline",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkSignature(pass, n.Recv, n.Type)
				if n.Body != nil {
					checkGoroutines(pass, n.Body)
				}
			case *ast.FuncLit:
				checkSignature(pass, nil, n.Type)
			case *ast.AssignStmt:
				checkAssignCopies(pass, n)
			case *ast.RangeStmt:
				checkRangeCopies(pass, n)
			}
			return true
		})
	}
	return nil
}

// lockName returns the sync or sync/atomic primitive type contained
// (transitively, by value) in t, or "".
func lockName(t types.Type) string {
	return lockNameRec(t, map[types.Type]bool{})
}

func lockNameRec(t types.Type, seen map[types.Type]bool) string {
	if t == nil || seen[t] {
		return ""
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Pool", "Map":
				return "sync." + obj.Name()
			}
		}
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" {
			switch obj.Name() {
			case "Bool", "Int32", "Int64", "Uint32", "Uint64", "Uintptr", "Pointer", "Value":
				return "atomic." + obj.Name()
			}
		}
		return lockNameRec(named.Underlying(), seen)
	}
	switch t := t.(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if name := lockNameRec(t.Field(i).Type(), seen); name != "" {
				return name
			}
		}
	case *types.Array:
		return lockNameRec(t.Elem(), seen)
	}
	return ""
}

// checkSignature flags by-value receivers and parameters whose type
// contains a sync primitive.
func checkSignature(pass *analysis.Pass, recv *ast.FieldList, ftype *ast.FuncType) {
	check := func(fl *ast.FieldList, kind string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t := pass.TypeOf(field.Type)
			if t == nil {
				continue
			}
			if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
				continue
			}
			name := lockName(t)
			if name == "" || pass.Annotated(field.Pos(), Annotation) {
				continue
			}
			pass.Reportf(field.Pos(), "%s copies %s by value; pass a pointer instead", kind, name)
		}
	}
	check(recv, "receiver")
	check(ftype.Params, "parameter")
}

// checkAssignCopies flags x := y / x = y where y's type carries a sync
// primitive by value. Fresh values (composite literals, function calls)
// are fine; copies of existing storage are not.
func checkAssignCopies(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		// A copy discarded into the blank identifier is harmless.
		if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		switch ast.Unparen(rhs).(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		default:
			continue
		}
		t := pass.TypeOf(rhs)
		if t == nil {
			continue
		}
		if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
			continue
		}
		if name := lockName(t); name != "" && !pass.Annotated(as.Pos(), Annotation) {
			pass.Reportf(as.Pos(), "assignment copies %s by value", name)
		}
	}
}

// checkRangeCopies flags `for _, x := range xs` where the element copy
// carries a sync primitive.
func checkRangeCopies(pass *analysis.Pass, rng *ast.RangeStmt) {
	for _, v := range []ast.Expr{rng.Key, rng.Value} {
		id, ok := v.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		t := pass.TypeOf(id)
		if t == nil {
			continue
		}
		if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
			continue
		}
		if name := lockName(t); name != "" && !pass.Annotated(rng.Pos(), Annotation) {
			pass.Reportf(id.Pos(), "range clause copies %s by value; iterate by index instead", name)
		}
	}
}

// checkGoroutines inspects every `go func(){...}` launched in the
// function body for unsynchronised writes to captured state.
func checkGoroutines(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		checkGoLit(pass, body, lit)
		return true
	})
}

func checkGoLit(pass *analysis.Pass, fnBody *ast.BlockStmt, lit *ast.FuncLit) {
	captured := func(id *ast.Ident) types.Object {
		obj, ok := pass.ObjectOf(id).(*types.Var)
		if !ok || obj.IsField() || analysis.DeclaredWithin(obj, lit) {
			return nil
		}
		return obj
	}
	writeTarget := func(e ast.Expr) {
		switch lhs := ast.Unparen(e).(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				return
			}
			if obj := captured(lhs); obj != nil && !pass.Annotated(lhs.Pos(), Annotation) {
				pass.Reportf(lhs.Pos(), "goroutine writes captured variable %s without synchronization; use a channel, a mutex, or index-disjoint slice writes", obj.Name())
			}
		case *ast.IndexExpr:
			base, ok := ast.Unparen(lhs.X).(*ast.Ident)
			if !ok {
				return
			}
			obj := captured(base)
			if obj == nil {
				return
			}
			if _, isMap := pass.TypeOf(lhs.X).Underlying().(*types.Map); isMap {
				if !pass.Annotated(lhs.Pos(), Annotation) {
					pass.Reportf(lhs.Pos(), "goroutine writes captured map %s; concurrent map writes are fatal — guard it or use per-goroutine maps", obj.Name())
				}
				return
			}
			checkIndexDisjoint(pass, fnBody, lit, lhs, obj)
		case *ast.SelectorExpr:
			// x.f = v on a captured x is a shared write racing with every
			// other worker. Aggregating through an atomic instrument
			// instead (x.f.Add(n) on an obs.Counter) is a method call,
			// not an assignment, and sails through.
			base := ast.Unparen(lhs.X)
			for {
				sel, ok := base.(*ast.SelectorExpr)
				if !ok {
					break
				}
				base = ast.Unparen(sel.X)
			}
			id, ok := base.(*ast.Ident)
			if !ok {
				return
			}
			if obj := captured(id); obj != nil && !pass.Annotated(lhs.Pos(), Annotation) {
				pass.Reportf(lhs.Pos(), "goroutine writes field %s.%s of captured variable without synchronization; use a channel, a mutex, or an atomic instrument (internal/obs)", obj.Name(), lhs.Sel.Name)
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a nested closure is not (yet) a goroutine body
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				writeTarget(l)
			}
		case *ast.IncDecStmt:
			writeTarget(n.X)
		}
		return true
	})
}

// checkIndexDisjoint verifies the out[i] = v idiom: a goroutine may
// write a captured slice only through indices other goroutines cannot
// also claim. The index is safe when every variable it mentions is
// closure-local or is a loop variable never mutated outside the closure
// (per-iteration loop variables are distinct per goroutine since Go
// 1.22).
func checkIndexDisjoint(pass *analysis.Pass, fnBody *ast.BlockStmt, lit *ast.FuncLit, idx *ast.IndexExpr, sliceObj types.Object) {
	ast.Inspect(idx.Index, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.ObjectOf(id).(*types.Var)
		if !ok || obj.IsField() || analysis.DeclaredWithin(obj, lit) {
			return true
		}
		if !mutatedOutside(pass, fnBody, lit, obj) {
			return true
		}
		if pass.Annotated(idx.Pos(), Annotation) {
			return true
		}
		pass.Reportf(idx.Pos(), "goroutine writes %s[...] with captured index %s that is mutated outside the goroutine — writes are not index-disjoint", sliceObj.Name(), obj.Name())
		return true
	})
}

// mutatedOutside reports whether obj is written in the function outside
// lit, not counting its declaration or the clauses of a loop that
// declares it (those produce per-iteration copies in Go >= 1.22).
func mutatedOutside(pass *analysis.Pass, fnBody *ast.BlockStmt, lit *ast.FuncLit, obj types.Object) bool {
	found := false
	analysis.WalkStack(fnBody, func(n ast.Node, stack []ast.Node) bool {
		if found || n == lit {
			return false
		}
		isLoopClause := func() bool {
			if len(stack) < 2 {
				return false
			}
			loop, ok := stack[len(stack)-2].(*ast.ForStmt)
			return ok && (loop.Init == n || loop.Post == n) && analysis.DeclaredWithin(obj, loop)
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true // declaration, not mutation
			}
			for _, l := range n.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok && pass.ObjectOf(id) == obj && !isLoopClause() {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && pass.ObjectOf(id) == obj && !isLoopClause() {
				found = true
			}
		case *ast.RangeStmt:
			// `for i = range xs` (no :=) re-binds an outer variable every
			// iteration: a mutation.
			if n.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if id, ok := e.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}
