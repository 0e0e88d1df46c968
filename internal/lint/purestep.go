package lint

import (
	"go/ast"
	"go/types"
)

// purestep checks that transition and precondition functions
// registered through the internal/ioa builder (Def.Input, InputND,
// Output, OutputND, Internal, InternalND) never write through their
// incoming state. The model requires Next to be a pure function of
// its arguments: explored states are shared between the exploration
// engines, memoized by the composition cache, and
// compared by canonical key, so in-place mutation corrupts the state
// graph silently.
//
// The check is a lightweight intra-function taint pass (stateWrites,
// shared with invpure): the ioa.State parameters are tainted; a type
// assertion to a pointer type yields a reference alias (any field
// write through it is a violation); an assertion to a value type
// yields a shallow copy (writes are violations only when the path
// crosses a map, slice, or pointer field, which still aliases the
// original).
type purestep struct{}

func init() { Register(purestep{}) }

func (purestep) Name() string { return "purestep" }

func (purestep) Doc() string {
	return "transition functions registered via the ioa builder must not mutate their state argument"
}

// stateArgIndexes maps each builder method to the argument positions
// holding state functions (pre, eff, or next).
var stateArgIndexes = map[string][]int{
	"Input":      {1},
	"InputND":    {1},
	"Output":     {2, 3},
	"OutputND":   {2},
	"Internal":   {2, 3},
	"InternalND": {2},
}

// isIoaDefMethod reports whether fn is a method on internal/ioa's Def
// builder, returning the method name.
func isIoaDefMethod(fn *types.Func) (string, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Def" {
		return "", false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || internalSegment(pkg.Path()) != "ioa" {
		return "", false
	}
	return fn.Name(), true
}

// isIoaState reports whether t is the internal/ioa State interface.
func isIoaState(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "State" {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && internalSegment(pkg.Path()) == "ioa"
}

// Taint levels for objects aliasing the incoming state.
const (
	taintNone = iota
	// taintShallow marks a value copy of (part of) the state: direct
	// field writes land on the copy, but writes through its map,
	// slice, or pointer fields reach the original.
	taintShallow
	// taintRef marks a reference to the original state (the interface
	// parameter itself, a pointer-asserted alias, or a map/slice field
	// pulled out of one): any write through it is a violation.
	taintRef
)

func (purestep) Run(p *Pass) {
	eachAnchored(p, func(n ast.Node) []ast.Expr {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return nil
		}
		fn := p.CalleeFunc(call)
		if fn == nil {
			return nil
		}
		method, _ := isIoaDefMethod(fn)
		var args []ast.Expr
		for _, idx := range stateArgIndexes[method] {
			if idx < len(call.Args) {
				args = append(args, call.Args[idx])
			}
		}
		return args
	}, func(ft *ast.FuncType, body *ast.BlockStmt) {
		stateWrites(p, ft, body, func(n ast.Node, what string) {
			p.Reportf(n.Pos(), "transition function mutates its state argument (%s); return a fresh state instead (§2.1: steps are relations over immutable states)", what)
		})
	})
}

// eachAnchored calls check once for every function handed to an
// anchor. anchors names the argument expressions of a node that must
// be functions under the analyzer's contract: a function literal is
// checked where it stands, and an identifier naming a function
// declared in this package is resolved to its declaration.
func eachAnchored(p *Pass, anchors func(ast.Node) []ast.Expr, check func(*ast.FuncType, *ast.BlockStmt)) {
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && p.Pkg.Info.Defs[fd.Name] != nil {
				decls[p.Pkg.Info.Defs[fd.Name]] = fd
			}
		}
	}
	checked := make(map[ast.Node]bool)
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			for _, arg := range anchors(n) {
				var fn ast.Node
				var ft *ast.FuncType
				var body *ast.BlockStmt
				switch arg := ast.Unparen(arg).(type) {
				case *ast.FuncLit:
					fn, ft, body = arg, arg.Type, arg.Body
				case *ast.Ident:
					if fd := decls[p.Pkg.Info.Uses[arg]]; fd != nil {
						fn, ft, body = fd, fd.Type, fd.Body
					}
				}
				if fn != nil && !checked[fn] {
					checked[fn] = true
					check(ft, body)
				}
			}
			return true
		})
	}
}

// stateWrites taints the ioa.State parameters of one function and
// calls report at every write that reaches the original state, with
// what naming it: "write to x", "increment of x", or "delete from map
// of x", where x is the tainted variable the write goes through.
func stateWrites(p *Pass, ft *ast.FuncType, body *ast.BlockStmt, report func(n ast.Node, what string)) {
	if body == nil {
		return
	}
	taint := make(map[types.Object]int)
	for _, field := range ft.Params.List {
		if t := p.TypeOf(field.Type); t != nil && isIoaState(t) {
			for _, name := range field.Names {
				if obj := p.Pkg.Info.Defs[name]; obj != nil {
					taint[obj] = taintRef
				}
			}
		}
	}
	if len(taint) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Propagate aliases on 1:1 define/assign of plain idents.
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					if level := aliasTaint(p, taint, n.Rhs[i]); level != taintNone {
						if obj := p.objectOf(id); obj != nil && taint[obj] < level {
							taint[obj] = level
						}
					}
				}
			}
			for _, lhs := range n.Lhs {
				if obj, bad := writeViolation(p, taint, lhs); bad {
					report(n, "write to "+obj.Name())
				}
			}
		case *ast.IncDecStmt:
			if obj, bad := writeViolation(p, taint, n.X); bad {
				report(n, "increment of "+obj.Name())
			}
		case *ast.CallExpr:
			// delete always mutates the map it is handed; the path to
			// it need only be rooted in tainted state.
			if isBuiltin(p, n, "delete") {
				if root := peel(n.Args[0], nil); taint[p.Pkg.Info.Uses[root]] != taintNone {
					report(n, "delete from map of "+root.Name)
				}
			}
		}
		return true
	})
}

// isBuiltin reports whether call is a call of the named builtin with
// at least one argument.
func isBuiltin(p *Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name || len(call.Args) == 0 {
		return false
	}
	_, ok = p.Pkg.Info.Uses[id].(*types.Builtin)
	return ok
}

// aliasTaint computes the taint of a right-hand side derived from
// tainted state: assertions to pointer types and reference-kinded
// field reads stay references; value reads become shallow copies.
func aliasTaint(p *Pass, taint map[types.Object]int, rhs ast.Expr) int {
	rhs = ast.Unparen(rhs)
	level := taint[p.Pkg.Info.Uses[peel(rhs, nil)]]
	switch e := rhs.(type) {
	case *ast.Ident:
		return level
	case *ast.TypeAssertExpr:
		if e.Type == nil {
			return taintNone
		}
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return taintNone
	}
	if level == taintNone {
		return taintNone
	}
	if isRefKind(p.TypeOf(rhs)) {
		return taintRef
	}
	return taintShallow
}

// isRefKind reports whether values of t share underlying storage when
// copied.
func isRefKind(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan:
		return true
	}
	return false
}

// peel strips parentheses, selectors, indexes, derefs, and type
// assertions off e and returns the identifier at its base, or nil.
// When step is not nil it sees each stripped layer, outermost first,
// with the operand the layer reads through.
func peel(e ast.Expr, step func(layer, operand ast.Expr)) *ast.Ident {
	for {
		var operand ast.Expr
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			operand = x.X
		case *ast.IndexExpr:
			operand = x.X
		case *ast.StarExpr:
			operand = x.X
		case *ast.TypeAssertExpr:
			operand = x.X
		default:
			return nil
		}
		if step != nil {
			step(ast.Unparen(e), operand)
		}
		e = operand
	}
}

// writeViolation reports whether assigning through lhs mutates the
// original state: always for reference taint (when the write goes
// through at least one selector/index/deref), and for shallow copies
// only when the path crosses a map, slice, or pointer boundary.
func writeViolation(p *Pass, taint map[types.Object]int, lhs ast.Expr) (types.Object, bool) {
	crossedRef, depth := false, 0
	root := peel(lhs, func(layer, operand ast.Expr) {
		depth++
		if _, ok := layer.(*ast.TypeAssertExpr); ok {
			operand = layer // an assertion reaches through the asserted type
		}
		crossedRef = crossedRef || isRefKind(p.TypeOf(operand))
	})
	obj := p.Pkg.Info.Uses[root]
	switch taint[obj] {
	case taintRef:
		return obj, depth > 0
	case taintShallow:
		return obj, crossedRef
	}
	return nil, false
}
