package lint

import (
	"go/ast"
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
	"Join": true, "JoinTagged": true, "GroupBy": true,
	// The With variants take a factory that runs once per partition attempt.
	// What the factory declares is that attempt's own state and may be
	// written by the functions it returns - an OuterJoinWith or SemiJoinWith
	// factory returns two, and "this probe row found a partner" is what
	// passes between them; what it captures is as shared as for any other UDF.
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
