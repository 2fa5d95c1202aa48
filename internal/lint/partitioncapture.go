package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"gradoop/internal/lint/analysis"
)

// PartitionCaptureAnalyzer flags function literals passed as UDFs to
// per-partition dataflow transformations (Map, Filter, FlatMap, Join
// joiners, ...) that write to variables captured from the enclosing scope.
// Every UDF runs concurrently on one goroutine per partition, so an
// unsynchronized captured write is a data race — exactly the class of the
// race fixed in PR 1. Literals that take a mutex (a .Lock() call
// anywhere in the body) are assumed to synchronize their writes and are
// skipped; sync/atomic operations are calls, not assignments, and never
// trigger the check.
//
// A With variant's factory is handed its partition's lane, which the attempt
// it was called for is the only goroutine to touch. A factory that parks the
// lane, or state it reached through it (a slab, say), in a captured variable
// hands it to every other partition's closure; a mutex orders that store and
// not what is later done through it, so this one is reported with or without.
var PartitionCaptureAnalyzer = &analysis.Analyzer{
	Name: "partitioncapture",
	Doc:  "flags per-partition UDF closures that mutate captured shared state",
	Run:  runPartitionCapture,
}

// udfFuncs names the dataflow package's transformations whose function
// arguments execute per partition. Every func-typed argument of these calls
// is checked; runStage itself is excluded because its bodies are the
// engine's own per-partition code: they return their output, and runStage
// writes it to the one slot that goroutine owns.
var udfFuncs = map[string]bool{
	"Map": true, "Filter": true, "FlatMap": true, "MapPartition": true,
	"Join": true, "GroupBy": true,
	// The With variants take a factory that runs once per partition attempt.
	// What the factory declares is that attempt's own state and may be
	// written by the functions it returns - an OuterJoinWith or SemiJoinWith
	// factory returns two, and "this probe row found a partner" is what
	// passes between them; what it captures is as shared as for any other UDF.
	// A factory is handed the partition's lane (checkLaneEscape).
	"FlatMapWith": true, "JoinWith": true, "OuterJoinWith": true, "SemiJoinWith": true,
	// A join in two halves: Build's key function and Probe's key function
	// and joiner factory run per partition like JoinWith's.
	"Build": true, "Probe": true,
	"ReduceByKey": true, "CountByKey": true, "DistinctBy": true,
	"PartitionByKey": true,
	// BulkIteration is deliberately absent: its body runs once per superstep
	// on the coordinating goroutine, so captured writes there are sequential.
	// UnionAll takes no function.
}

func runPartitionCapture(pass *analysis.Pass) (any, error) {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != dataflowPath || !udfFuncs[fn.Name()] {
				return true
			}
			for _, arg := range call.Args {
				lit, ok := ast.Unparen(arg).(*ast.FuncLit)
				if !ok {
					continue
				}
				checkCapturedWrites(pass, fn.Name(), lit)
				checkLaneEscape(pass, fn.Name(), lit)
			}
			return true
		})
	}
	return nil, nil
}

// checkCapturedWrites reports unsynchronized writes to captured variables
// inside a per-partition literal.
func checkCapturedWrites(pass *analysis.Pass, udfOf string, lit *ast.FuncLit) {
	info := pass.TypesInfo
	if usesMutex(info, lit) {
		return
	}
	report := func(pos ast.Node, obj types.Object) {
		pass.Reportf(pos.Pos(),
			"UDF passed to dataflow.%s writes captured variable %q; per-partition UDFs run on concurrent goroutines, so unsynchronized captured writes race (guard with a mutex/atomic or restructure)",
			udfOf, obj.Name())
	}
	checkTarget := func(n ast.Node, target ast.Expr) {
		id := rootIdent(target)
		if id == nil {
			return
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || declaredWithin(v, lit) {
			return
		}
		report(n, v)
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				checkTarget(s, lhs)
			}
		case *ast.IncDecStmt:
			checkTarget(s, s.X)
		case *ast.UnaryExpr:
			// Taking the address of a captured variable and handing it out is
			// not itself a write; skip (atomic.AddInt64(&x, 1) stays legal).
		}
		return true
	})
}

// usesMutex reports whether the literal's body contains a Lock/RLock call —
// the conventional sign that its captured writes are deliberately
// synchronized.
func usesMutex(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if name := sel.Sel.Name; name == "Lock" || name == "RLock" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// checkLaneEscape reports a factory literal that stores its lane, or state
// reached from it, where another partition's closure can reach it: in a
// variable it captured, or down a channel. What counts as reached from the
// lane is the lane parameter itself and every local defined as a field of,
// the address of, a type assertion on or a pointer some function returned
// for something already reached - not the value of a method call on it, which
// is a row the slab handed out and the stage's to hand on.
func checkLaneEscape(pass *analysis.Pass, udfOf string, lit *ast.FuncLit) {
	info := pass.TypesInfo
	reached := map[types.Object]bool{}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil && isLanePointer(obj.Type()) {
				reached[obj] = true
			}
		}
	}
	if len(reached) == 0 {
		return
	}
	var reaches func(ast.Expr) bool
	reaches = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			return reached[info.Uses[e]]
		case *ast.SelectorExpr:
			return reaches(e.X)
		case *ast.StarExpr:
			return reaches(e.X)
		case *ast.TypeAssertExpr:
			return reaches(e.X)
		case *ast.UnaryExpr:
			return e.Op == token.AND && reaches(e.X)
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && info.Selections[sel] != nil {
				return false // a method's value
			}
			if _, ptr := info.TypeOf(e).Underlying().(*types.Pointer); !ptr && !isAppend(info, e) {
				return false
			}
			for _, arg := range e.Args {
				if reaches(arg) {
					return true
				}
			}
		}
		return false
	}
	// Locals defined from what is reached are reached; source order is enough
	// for the straight-line set-up a factory is.
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				rhs := s.Rhs[0]
				if len(s.Rhs) == len(s.Lhs) {
					rhs = s.Rhs[i]
				}
				if !reaches(rhs) {
					continue
				}
				id := rootIdent(lhs)
				if id == nil {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				v, ok := obj.(*types.Var)
				if !ok || v.IsField() {
					continue
				}
				if declaredWithin(v, lit) {
					if _, plain := lhs.(*ast.Ident); plain {
						reached[v] = true
					}
					continue
				}
				pass.Reportf(s.Pos(),
					"factory passed to dataflow.%s stores its lane, or state reached through it, in captured variable %q; a lane is touched by the attempt it was handed to and by nothing else, whatever lock orders the store",
					udfOf, v.Name())
			}
		case *ast.SendStmt:
			if reaches(s.Value) {
				pass.Reportf(s.Pos(),
					"factory passed to dataflow.%s sends its lane, or state reached through it, down a channel; a lane is touched by the attempt it was handed to and by nothing else",
					udfOf)
			}
		}
		return true
	})
}

// isLanePointer reports whether t is *dataflow.Lane.
func isLanePointer(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Lane" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == dataflowPath
}

// isAppend reports whether call is the append builtin.
func isAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}
