package lint

import (
	"go/ast"
	"go/types"
)

// Engine package paths the analyzers key on. Matching is exact against
// types.Package.Path(), so the analyzers fire both when other packages use
// the engine and when the engine packages are analyzed themselves.
const (
	dataflowPath = "gradoop/internal/dataflow"
	obsPath      = "gradoop/internal/obs"
)

// calleeOf resolves the function or method object a call expression invokes,
// or nil for indirect calls (function values, interface methods resolved
// dynamically keep their declared object). Generic instantiations resolve to
// their origin, so one declaration matches every instantiation.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	case *ast.IndexExpr: // explicit instantiation f[T](...)
		if base, ok := ast.Unparen(fn.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fn.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	case *ast.IndexListExpr: // f[T, U](...)
		if base, ok := ast.Unparen(fn.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fn.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	}
	if id == nil {
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	return fn.Origin()
}

// isPkgFunc reports whether fn is the package-level function pkgPath.name.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isMethod reports whether fn is the method pkgPath.(recv).name, where recv
// is the receiver's named type (pointer receivers included).
func isMethod(fn *types.Func, pkgPath, recv, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == recv
}

// declaredWithin reports whether obj's declaration lies inside node's source
// range — i.e. the object is local to the function literal, not captured.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj.Pos() >= node.Pos() && obj.Pos() <= node.End()
}

// rootIdent peels index, selector, paren and star layers off an lvalue and
// returns the identifier at its base, or nil.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// funcDecls indexes a package's function declarations by their object, so
// analyzers can follow same-package static calls into callee bodies.
func funcDecls(files []*ast.File, info *types.Info) map[*types.Func]*ast.FuncDecl {
	out := map[*types.Func]*ast.FuncDecl{}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				out[fn.Origin()] = fd
			}
		}
	}
	return out
}

// eachFunc invokes f for every function body in the package: declarations
// and, when deep is true, every function literal as its own scope.
func eachFuncDecl(files []*ast.File, f func(*ast.FuncDecl)) {
	for _, file := range files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				f(fd)
			}
		}
	}
}
