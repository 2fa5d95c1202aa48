package lint

import (
	"go/ast"
	"go/types"

	"gradoop/internal/lint/analysis"
)

// CtxPollAnalyzer guards the engine's cancellation latency: inside a
// per-partition execution context — a stage body passed to dataflow's
// runStage or a UDF passed to dataflow.MapPartition — every range loop over
// partition-sized data must poll cancellation: through the attempt's tick in
// a stage body, through (*Env).aborted (under the cancelCheckMask idiom) in
// a UDF, which owns its loop and has no attempt. An unpolled loop keeps a
// worker spinning after the job's context expired, breaking the timeout
// guarantees the fault-tolerance layer (PR 1) established.
//
// Loops over slice-of-slice values (the worker-count-sized partition
// vectors, e.g. `for p := range out`) are exempt: their trip count is the
// worker count, not the data size.
var CtxPollAnalyzer = &analysis.Analyzer{
	Name: "ctxpoll",
	Doc:  "flags per-partition range loops that never poll cancellation",
	Run:  runCtxPoll,
}

func runCtxPoll(pass *analysis.Pass) (any, error) {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(info, call)
			// The body, or the UDF, is the last argument of both.
			if !isPkgFunc(fn, dataflowPath, "runStage") && !isPkgFunc(fn, dataflowPath, "MapPartition") {
				return true
			}
			if lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit); ok {
				checkPolling(pass, info, lit)
			}
			return true
		})
	}
	return nil, nil
}

// checkPolling reports data-sized range loops in the literal whose bodies
// never poll.
func checkPolling(pass *analysis.Pass, info *types.Info, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		loop, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if !dataSizedRange(info, loop.X) {
			return true
		}
		if !pollsAborted(info, loop.Body) {
			pass.Reportf(loop.Pos(),
				"per-partition range loop never polls cancellation (attempt.tick or env.aborted); a cancelled or failed job keeps this worker spinning")
		}
		return true
	})
}

// dataSizedRange reports whether the ranged expression iterates over
// element data rather than over the worker-count-sized partition vector: a
// slice or map whose element type is not itself a slice.
func dataSizedRange(info *types.Info, x ast.Expr) bool {
	tv, ok := info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	var elem types.Type
	switch t := tv.Type.Underlying().(type) {
	case *types.Slice:
		elem = t.Elem()
	case *types.Map:
		elem = t.Elem()
	default:
		return false
	}
	if _, isSlices := elem.Underlying().(*types.Slice); isSlices {
		return false
	}
	return true
}

// pollsAborted reports whether the loop body contains a call to the attempt's
// tick or to the Env's aborted poll under it (which checks both the failure
// flag and the job context).
func pollsAborted(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(info, call)
		if isMethod(fn, dataflowPath, "attempt", "tick") || isMethod(fn, dataflowPath, "Env", "aborted") {
			found = true
			return false
		}
		return true
	})
	return found
}
