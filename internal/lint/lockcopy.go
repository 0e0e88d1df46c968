package lint

import (
	"go/ast"
	"go/types"
)

// lockcopy flags by-value copies of structs containing sync
// primitives — in this repository, above all the leaf memo of
// ioa.Composite (a sync.Map of rows whose fields are atomic pointers)
// and the atomic counters and histograms of internal/obs. A copied
// mutex splits its waiters from its lockers, and a copied atomic cell
// silently forks the tally it accumulates, so a copied cache or
// counter stops synchronizing (or counting for) the structure it
// belongs to. The analyzer reports
// copies at assignments, call arguments, by-value
// parameter/receiver/result declarations, range clauses, and returns.
// Fresh values (composite literals, function call results) are not
// copies and are allowed.
type lockcopy struct{}

func init() { Register(lockcopy{}) }

func (lockcopy) Name() string { return "lockcopy" }

func (lockcopy) Doc() string {
	return "flags by-value copies of structs containing sync primitives (memo rows, metric cells and kin)"
}

// syncTypes are the sync package types whose copies are invalid after
// first use.
var syncTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Once": true,
	"Cond": true, "Map": true, "Pool": true,
}

// atomicTypes are the sync/atomic wrapper types, equally no-copy: a
// copied cell keeps accepting Adds that the original never sees.
var atomicTypes = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Uint32": true,
	"Uint64": true, "Uintptr": true, "Pointer": true, "Value": true,
}

// containsLock reports whether a value of type t holds a sync or
// sync/atomic primitive directly (not behind a pointer, slice, or
// map).
func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "sync":
				if syncTypes[obj.Name()] {
					return true
				}
			case "sync/atomic":
				if atomicTypes[obj.Name()] {
					return true
				}
			}
		}
		return containsLock(named.Underlying(), seen)
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), seen)
	}
	return false
}

// lockName names the lock-containing type for diagnostics.
func lockName(t types.Type) string {
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// copiesLock reports whether evaluating e as a value copies a lock:
// true for plain reads of existing lock-containing values, false for
// fresh values (literals, calls, conversions) and non-lock types.
func copiesLock(p *Pass, e ast.Expr) (types.Type, bool) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.CompositeLit, *ast.FuncLit, *ast.BasicLit:
		return nil, false
	case *ast.CallExpr:
		return nil, false
	case *ast.UnaryExpr:
		if x.Op.String() == "&" {
			return nil, false
		}
	}
	t := p.TypeOf(e)
	if t == nil || !containsLock(t, make(map[types.Type]bool)) {
		return nil, false
	}
	return t, true
}

func (lockcopy) Run(p *Pass) {
	checkFieldList := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t := p.TypeOf(field.Type)
			if t == nil {
				continue
			}
			if containsLock(t, make(map[types.Type]bool)) {
				p.Reportf(field.Pos(), "%s of type %s declared by value copies its locks; use a pointer", what, lockName(t))
			}
		}
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, rhs := range n.Rhs {
					if t, bad := copiesLock(p, rhs); bad {
						p.Reportf(rhs.Pos(), "assignment copies %s by value, copying its locks; use a pointer", lockName(t))
					}
				}
			case *ast.ValueSpec:
				for _, v := range n.Values {
					if t, bad := copiesLock(p, v); bad {
						p.Reportf(v.Pos(), "declaration copies %s by value, copying its locks; use a pointer", lockName(t))
					}
				}
			case *ast.CallExpr:
				if p.isConversionOrBuiltin(n) {
					return true
				}
				for _, arg := range n.Args {
					if t, bad := copiesLock(p, arg); bad {
						p.Reportf(arg.Pos(), "call passes %s by value, copying its locks; pass a pointer", lockName(t))
					}
				}
			case *ast.FuncDecl:
				checkFieldList(n.Recv, "receiver")
				checkFieldList(n.Type.Params, "parameter")
				checkFieldList(n.Type.Results, "result")
			case *ast.FuncLit:
				checkFieldList(n.Type.Params, "parameter")
				checkFieldList(n.Type.Results, "result")
			case *ast.RangeStmt:
				if n.Value != nil {
					if t := p.TypeOf(n.Value); t != nil && containsLock(t, make(map[types.Type]bool)) {
						p.Reportf(n.Value.Pos(), "range clause copies %s elements by value, copying their locks; range over indices instead", lockName(t))
					}
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					if t, bad := copiesLock(p, r); bad {
						p.Reportf(r.Pos(), "return copies %s by value, copying its locks; return a pointer", lockName(t))
					}
				}
			}
			return true
		})
	}
}

// isConversionOrBuiltin reports whether call is a type conversion or a
// builtin call (len, cap, new, ...), neither of which is a by-value
// hand-off worth flagging.
func (p *Pass) isConversionOrBuiltin(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch p.Pkg.Info.Uses[fun].(type) {
		case *types.Builtin, *types.TypeName:
			return true
		}
	case *ast.SelectorExpr:
		if _, ok := p.Pkg.Info.Uses[fun.Sel].(*types.TypeName); ok {
			return true
		}
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.StructType, *ast.InterfaceType, *ast.StarExpr:
		return true
	}
	return false
}
