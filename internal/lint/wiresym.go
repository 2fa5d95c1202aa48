package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"gradoop/internal/lint/analysis"
)

// WireSymAnalyzer machine-checks the two places in the wire layer where
// nothing but convention keeps two lists in step. (Messages - telemetry
// bundles, frame headers - need no rule: each is one layout function walked in
// both directions by internal/field, so there is no second list to drift.)
//
//  1. Every frame-type constant (a byte-typed `frameX` package constant)
//     is both written by some writer (passed to a call) and matched by
//     some reader (a case clause or ==/!= comparison) — a frame type that
//     is sent but never dispatched is a protocol hole, and one matched but
//     never sent is dead protocol.
//
//  2. A struct type that implements any of dataflow.Wire implements all of
//     it - WireSize, AppendWire, WireReader - and its AppendWire reads the
//     fields its decoding method (DecodeWireInto or decodeWire, the one
//     WireReader hands out) writes, in the same order: rows are per-element
//     code, hand-written and alloc-guarded, and a drift silently corrupts
//     every field after the divergence point. The encoder's sequence is the
//     source order of field reads from its receiver (reads inside len/cap
//     don't consume bytes and are skipped); the decoder's is the source order
//     of field writes, whether by assignment or composite-literal key. A
//     field decoded by its own codec (x.f.DecodeWireInto(b)) counts as
//     written there.
//
// The analyzer is gated to the wire-layer packages; generic business
// structs elsewhere are not codecs and their field access order is
// meaningless.
var WireSymAnalyzer = &analysis.Analyzer{
	Name: "wiresym",
	Doc:  "every frame type needs both a writer and a reader; a dataflow.Wire row codec is whole and its two directions agree on field order",
	Run:  runWireSym,
}

// wirePackages are the packages the rules govern: the frame protocol, and
// the rows and join records whose wire form is dataflow.Wire.
var wirePackages = map[string]bool{
	"gradoop/internal/cluster":   true,
	"gradoop/internal/embedding": true,
	"gradoop/internal/operators": true,
}

// wireMethods is dataflow.Wire, the one codec interface of element types;
// wireDecoders are the names its implementations give the method that
// WireReader returns.
var (
	wireMethods  = []string{"WireSize", "AppendWire", "WireReader"}
	wireDecoders = []string{"DecodeWireInto", "decodeWire"}
)

func runWireSym(pass *analysis.Pass) (any, error) {
	path := pass.Pkg.Path()
	// Test variants of a package ("pkg [pkg.test]") are the same source.
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	if !wirePackages[path] {
		return nil, nil
	}
	checkWireMethods(pass)
	checkFrameConsts(pass)
	return nil, nil
}

// checkWireMethods holds AppendWire, its subject the receiver, to the
// decoding method of the same type.
func checkWireMethods(pass *analysis.Pass) {
	info := pass.TypesInfo
	methods := map[*types.Named]map[string]*ast.FuncDecl{}
	var order []*types.Named
	eachFuncDecl(pass.Files, func(fd *ast.FuncDecl) {
		if fd.Recv == nil || len(fd.Recv.List) != 1 || isTestFile(pass, fd.Pos()) {
			return
		}
		t := info.TypeOf(fd.Recv.List[0].Type)
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return
		}
		if _, ok := named.Underlying().(*types.Struct); !ok {
			return
		}
		if methods[named] == nil {
			methods[named] = map[string]*ast.FuncDecl{}
			order = append(order, named)
		}
		methods[named][fd.Name.Name] = fd
	})
	for _, named := range order {
		ms := methods[named]
		var have, missing []string
		for _, name := range wireMethods {
			if ms[name] != nil {
				have = append(have, name)
			} else {
				missing = append(missing, name)
			}
		}
		if len(have) == 0 {
			continue
		}
		if len(missing) > 0 {
			pass.Reportf(ms[have[0]].Name.Pos(), "%s has %s but not %s: a wire codec is all of dataflow.Wire",
				named.Obj().Name(), strings.Join(have, ", "), strings.Join(missing, ", "))
			continue
		}
		enc := ms["AppendWire"]
		var dec *ast.FuncDecl
		for _, name := range wireDecoders {
			if dec = ms[name]; dec != nil {
				break
			}
		}
		if dec == nil {
			pass.Reportf(enc.Name.Pos(), "%s.AppendWire has no decoding method (one of %s)",
				named.Obj().Name(), strings.Join(wireDecoders, ", "))
			continue
		}
		if len(enc.Recv.List[0].Names) != 1 {
			continue // receiver unnamed: nothing is read from it
		}
		subject, _ := info.Defs[enc.Recv.List[0].Names[0]].(*types.Var)
		if subject == nil {
			continue
		}
		encSeq := encodeFieldSeq(enc, subject, info)
		decSeq := decodeFieldSeq(dec, named, info)
		if !equalSeq(encSeq, decSeq) {
			pass.Reportf(dec.Name.Pos(),
				"codec asymmetry: %s.%s reads fields in order [%s] but AppendWire writes [%s]",
				named.Obj().Name(), dec.Name.Name, strings.Join(decSeq, " "), strings.Join(encSeq, " "))
		}
	}
}

// encodeFieldSeq lists, in source order without repeats, the fields of
// subject the encoder reads. Reads inside len/cap arguments are skipped —
// they size buffers, they don't serialize.
func encodeFieldSeq(fd *ast.FuncDecl, subject *types.Var, info *types.Info) []string {
	var seq []string
	seen := map[string]bool{}
	inLenCap := map[ast.Node]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
				if _, builtin := info.Uses[id].(*types.Builtin); builtin {
					for _, a := range call.Args {
						inLenCap[a] = true
					}
				}
			}
		}
		if inLenCap[n] {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || info.Uses[base] != subject {
			return true
		}
		if !seen[sel.Sel.Name] {
			seen[sel.Sel.Name] = true
			seq = append(seq, sel.Sel.Name)
		}
		return true
	})
	return seq
}

// decodeFieldSeq lists, in source order without repeats, the fields of the
// named struct type the decoder writes: `x.Field = ...` assignments and
// composite-literal keys (or positional elements) of that type.
func decodeFieldSeq(fd *ast.FuncDecl, named *types.Named, info *types.Info) []string {
	type write struct {
		pos  token.Pos
		name string
	}
	var writes []write
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				selection := info.Selections[sel]
				if selection == nil || !sameNamed(selection.Recv(), named) {
					continue
				}
				writes = append(writes, write{pos: sel.Pos(), name: sel.Sel.Name})
			}
		case *ast.CallExpr:
			// x.f.DecodeWireInto(b): the field is decoded by its own codec.
			fun, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok || !slices.Contains(wireDecoders, fun.Sel.Name) {
				return true
			}
			sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if selection := info.Selections[sel]; selection != nil && sameNamed(selection.Recv(), named) {
				writes = append(writes, write{pos: sel.Pos(), name: sel.Sel.Name})
			}
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok || !sameNamed(tv.Type, named) {
				return true
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						writes = append(writes, write{pos: el.Pos(), name: key.Name})
					}
				} else if i < st.NumFields() {
					writes = append(writes, write{pos: el.Pos(), name: st.Field(i).Name()})
				}
			}
		}
		return true
	})
	var seq []string
	seen := map[string]bool{}
	for _, w := range writes {
		if !seen[w.name] {
			seen[w.name] = true
			seq = append(seq, w.name)
		}
	}
	return seq
}

// sameNamed reports whether t (pointer-dereferenced) is the named type.
func sameNamed(t types.Type, named *types.Named) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj() == named.Obj()
}

func equalSeq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// constUsage tracks which protocol sides use one frame constant.
type constUsage struct {
	written bool
	read    bool
}

// checkFrameConsts verifies every byte-typed frame-type constant appears on
// both sides of the protocol: written (passed to a call) and read (matched
// in a case clause or ==/!= comparison).
func checkFrameConsts(pass *analysis.Pass) {
	info := pass.TypesInfo
	consts := map[*types.Const]*constUsage{}
	order := []*types.Const{}
	for _, f := range pass.Files {
		if isTestFile(pass, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for _, name := range vs.Names {
				c, ok := info.Defs[name].(*types.Const)
				if !ok || !strings.HasPrefix(c.Name(), "frame") {
					continue
				}
				if basic, ok := c.Type().(*types.Basic); !ok || basic.Kind() != types.Uint8 {
					continue
				}
				consts[c] = &constUsage{}
				order = append(order, c)
			}
			return true
		})
	}
	if len(consts) == 0 {
		return
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f.Pos()) {
			continue
		}
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if id, ok := n.(*ast.Ident); ok && len(stack) > 0 {
				if c, ok := info.Uses[id].(*types.Const); ok {
					if u := consts[c]; u != nil {
						classifyConstUse(id, stack, u)
					}
				}
			}
			stack = append(stack, n)
			return true
		})
	}
	for _, c := range order {
		u := consts[c]
		if !u.read {
			pass.Reportf(c.Pos(), "frame type %s has no reader: it never appears in a frame-type switch case or comparison", c.Name())
		}
		if !u.written {
			pass.Reportf(c.Pos(), "frame type %s has no writer: it is never passed to a frame-writing call", c.Name())
		}
	}
}

// classifyConstUse decides whether one use of a frame const is a writer
// side (argument to a call, value in a struct/assignment feeding a writer)
// or a reader side (case clause, equality comparison).
func classifyConstUse(id *ast.Ident, stack []ast.Node, u *constUsage) {
	parent := stack[len(stack)-1]
	switch p := parent.(type) {
	case *ast.CaseClause:
		u.read = true
	case *ast.BinaryExpr:
		if p.Op == token.EQL || p.Op == token.NEQ {
			u.read = true
		}
	case *ast.CallExpr:
		for _, a := range p.Args {
			if a == ast.Expr(id) {
				u.written = true
			}
		}
	case *ast.KeyValueExpr:
		if p.Value == ast.Expr(id) {
			u.written = true
		}
	case *ast.AssignStmt:
		for _, r := range p.Rhs {
			if r == ast.Expr(id) {
				u.written = true
			}
		}
	case *ast.ReturnStmt:
		u.written = true
	}
}
