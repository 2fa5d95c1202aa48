package lint

import (
	"go/ast"
	"go/types"

	"gradoop/internal/lint/analysis"
)

// EnvMixAnalyzer flags dataflow transformations that combine datasets
// (Union, UnionAll, Join, JoinTagged, JoinWith, CoGroup, Probe against a
// Build, BulkIteration's working set and seed) whose operands provably come
// from different execution environments — two distinct NewEnv/NewEnvContext
// call sites flowing into one combination. The engine catches this at
// runtime with ErrEnvMismatch and fails the job; envmix catches the same
// class at compile time, before a mixed-environment pipeline ever runs. The
// check is intraprocedural and conservative: it only reports when both
// operands' environment origins are known and distinct.
var EnvMixAnalyzer = &analysis.Analyzer{
	Name: "envmix",
	Doc:  "flags combining Datasets created on provably different dataflow Envs",
	Run:  runEnvMix,
}

// combiningDataflowFuncs maps the transformations that take more than one
// dataset to how many leading arguments are dataset operands (a Probe's
// first is the Build it reads, which belongs to its input's environment); 0
// stands for all of them, the variadic UnionAll.
var combiningDataflowFuncs = map[string]int{
	"Union":         2,
	"UnionAll":      0,
	"Join":          2,
	"JoinTagged":    2,
	"JoinWith":      2,
	"CoGroup":       2,
	"Probe":         2,
	"BulkIteration": 2,
}

// datasetSourceFuncs create a dataset from an Env passed as the first
// argument.
var datasetSourceFuncs = map[string]bool{
	"FromSlice":      true,
	"FromPartitions": true,
	"Empty":          true,
}

// datasetDeriveFuncs derive a dataset from the dataset passed as the first
// argument, preserving its environment.
var datasetDeriveFuncs = map[string]bool{
	"Map": true, "Filter": true, "FlatMap": true, "FlatMapWith": true, "MapPartition": true,
	"Rebalance": true, "PartitionByKey": true, "DistinctBy": true,
	"Distinct": true, "ReduceByKey": true, "CountByKey": true,
	"GroupBy": true, "BulkIteration": true, "Build": true,
	// The combining ops derive from their first operand.
	"Union": true, "UnionAll": true, "Join": true, "JoinTagged": true, "JoinWith": true, "CoGroup": true,
	"Probe": true,
}

func runEnvMix(pass *analysis.Pass) (any, error) {
	eachFuncDecl(pass.Files, func(fd *ast.FuncDecl) {
		envMixFunc(pass, fd.Body)
	})
	return nil, nil
}

// envMixFunc runs the per-function origin tracking. Origins are identified
// by the position of the NewEnv call that created them; variables holding
// envs or datasets inherit origins through simple assignments in source
// order, which covers the straight-line construction code the engine's
// callers write.
func envMixFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	envOrigin := map[types.Object]ast.Node{} // env var -> creating NewEnv call
	dsOrigin := map[types.Object]ast.Node{}  // dataset var -> creating NewEnv call

	// originOf resolves the environment origin of an expression that
	// evaluates to a *dataflow.Env, *dataflow.Dataset or *dataflow.HashBuild,
	// or nil if unknown.
	var originOf func(expr ast.Expr) ast.Node
	originOf = func(expr ast.Expr) ast.Node {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			obj := info.Uses[e]
			if obj == nil {
				return nil
			}
			if o, ok := envOrigin[obj]; ok {
				return o
			}
			if o, ok := dsOrigin[obj]; ok {
				return o
			}
			return nil
		case *ast.CallExpr:
			fn := calleeOf(info, e)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != dataflowPath {
				return nil
			}
			switch {
			case fn.Name() == "NewEnv" || fn.Name() == "NewEnvContext":
				return e
			case datasetSourceFuncs[fn.Name()] && len(e.Args) > 0:
				return originOf(e.Args[0])
			case datasetDeriveFuncs[fn.Name()] && len(e.Args) > 0:
				return originOf(e.Args[0])
			}
			return nil
		}
		return nil
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			if len(stmt.Lhs) != len(stmt.Rhs) {
				return true
			}
			for i, lhs := range stmt.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil {
					continue
				}
				rhs := stmt.Rhs[i]
				// NewEnv / NewEnvContext results establish env origins; any
				// dataset-producing expression establishes dataset origins.
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
					if fn := calleeOf(info, call); fn != nil &&
						fn.Pkg() != nil && fn.Pkg().Path() == dataflowPath &&
						(fn.Name() == "NewEnv" || fn.Name() == "NewEnvContext") {
						envOrigin[obj] = call
						continue
					}
				}
				if o := originOf(rhs); o != nil {
					dsOrigin[obj] = o
				}
			}
		case *ast.CallExpr:
			fn := calleeOf(info, stmt)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != dataflowPath {
				return true
			}
			operands, ok := combiningDataflowFuncs[fn.Name()]
			if !ok {
				return true
			}
			if operands == 0 || operands > len(stmt.Args) {
				operands = len(stmt.Args)
			}
			// The first operand of known origin against every later one.
			var first ast.Node
			for _, arg := range stmt.Args[:operands] {
				origin := originOf(arg)
				if origin == nil {
					continue
				}
				if first == nil {
					first = origin
					continue
				}
				if origin != first {
					lp := pass.Fset.Position(first.Pos())
					rp := pass.Fset.Position(origin.Pos())
					pass.Reportf(stmt.Pos(),
						"operands of dataflow.%s belong to different environments (created at %s:%d and %s:%d); this fails at runtime with ErrEnvMismatch",
						fn.Name(), lp.Filename, lp.Line, rp.Filename, rp.Line)
					break
				}
			}
		}
		return true
	})
}
