package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"gradoop/internal/lint/analysis"
)

// ObsRegisterAnalyzer enforces the telemetry registry's construction
// discipline: obs instruments are created once at setup (session/server
// construction) and captured by the code that records into them. A
// constructor call inside a function literal — the shape of per-partition
// UDFs and other hot-path closures — or inside an HTTP request handler
// re-registers the instrument per invocation: the registry panics on the
// duplicate name on the second call, and even a name that varies per call
// leaks series without bound. Recording (Inc/Add/Observe/With) is free to
// appear anywhere; only creation is pinned to setup.
var ObsRegisterAnalyzer = &analysis.Analyzer{
	Name: "obsregister",
	Doc:  "flags obs instrument construction inside function literals or request handlers",
	Run:  runObsRegister,
}

func runObsRegister(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			walkObsCtors(pass, fd.Body, isHandlerDecl(pass.TypesInfo, fd), false)
		}
	}
	return nil, nil
}

// walkObsCtors reports instrument constructor calls under n. inHandler
// marks bodies of request-handler functions, inLit bodies of function
// literals; literals nested in handlers keep both flags, and the literal
// diagnostic wins (it names the tighter scope).
func walkObsCtors(pass *analysis.Pass, n ast.Node, inHandler, inLit bool) {
	ast.Inspect(n, func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.FuncLit:
			walkObsCtors(pass, e.Body, inHandler, true)
			return false
		case *ast.CallExpr:
			fn := calleeOf(pass.TypesInfo, e)
			// Every Registry method named New* registers an instrument.
			if fn == nil || !strings.HasPrefix(fn.Name(), "New") || !isMethod(fn, obsPath, "Registry", fn.Name()) {
				return true
			}
			switch {
			case inLit:
				pass.Reportf(e.Pos(),
					"obs instrument %s created inside a function literal; construct instruments once at setup and capture them — per-call registration panics on the duplicate name", fn.Name())
			case inHandler:
				pass.Reportf(e.Pos(),
					"obs instrument %s created inside a request handler; construct instruments once at server setup — per-request registration panics on the duplicate name", fn.Name())
			}
		}
		return true
	})
}

// isHandlerDecl reports whether fd has the http.HandlerFunc shape:
// func(http.ResponseWriter, *http.Request), receiver allowed.
func isHandlerDecl(info *types.Info, fd *ast.FuncDecl) bool {
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 2 || sig.Results().Len() != 0 {
		return false
	}
	if !isNamedType(sig.Params().At(0).Type(), "net/http", "ResponseWriter") {
		return false
	}
	ptr, ok := sig.Params().At(1).Type().(*types.Pointer)
	return ok && isNamedType(ptr.Elem(), "net/http", "Request")
}

// isNamedType reports whether t is the named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
