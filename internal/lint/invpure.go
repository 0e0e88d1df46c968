package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// invpure checks that invariant, legitimacy and leads-to predicates —
// the functions handed to lattice.L, set as the Pred field of a
// lattice.Lemma or the S and T fields of a proof.LeadsTo, or passed as
// the legitimacy argument of stabilize.Certify — are pure observations
// of their argument. The induction engine evaluates each conjunct
// millions of times over a streamed candidate domain and credits
// per-conjunct obligations by name; the stabilization certifier
// evaluates legitimacy on every explored state, and the exact leads-to
// check S on every reachable state and T on every edge. A predicate
// that mutates the state corrupts shared interned states exactly like
// an impure transition; one that writes captured variables makes the
// certificate depend on evaluation order; one that reads the clock or
// the global random source, or lets map-iteration order reach its
// result, makes the verdict irreproducible.
//
// Predicates are found by purestep's anchor index (eachAnchored), and
// writes reaching the state by its taint pass (stateWrites). The clock
// and random reads are nondet's call classifier (nondetCall), and map
// order is nondet's walk (mapOrderFlows), of which a predicate reports
// an iteration variable flowing into a return result or an appended
// slice — condition-only use (existence tests, counting) is
// order-insensitive and exempt. What invpure checks on its own is the
// write to a captured variable.
type invpure struct{}

func init() { Register(invpure{}) }

func (invpure) Name() string { return "invpure" }

func (invpure) Doc() string {
	return "invariant/legitimacy/leads-to predicates (lattice.L, Lemma.Pred, LeadsTo.S/T, stabilize.Certify) must be pure"
}

// predicateArg returns the argument position of the predicate for a
// recognized anchor call, or -1.
func predicateArg(fn *types.Func) int {
	pkg := fn.Pkg()
	if pkg == nil {
		return -1
	}
	switch internalSegment(pkg.Path()) {
	case "lattice":
		if fn.Name() == "L" {
			return 1
		}
	case "stabilize":
		if fn.Name() == "Certify" {
			return 2
		}
	}
	return -1
}

// predicateFields returns the predicate fields of a recognized struct
// type: Pred of the internal/lattice Lemma, S and T of the
// internal/proof LeadsTo.
func predicateFields(t types.Type) []string {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	switch internalSegment(named.Obj().Pkg().Path()) + "." + named.Obj().Name() {
	case "lattice.Lemma":
		return []string{"Pred"}
	case "proof.LeadsTo":
		return []string{"S", "T"}
	}
	return nil
}

func (invpure) Run(p *Pass) {
	eachAnchored(p, func(n ast.Node) []ast.Expr {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := p.CalleeFunc(n); fn != nil {
				if idx := predicateArg(fn); idx >= 0 && idx < len(n.Args) {
					return n.Args[idx : idx+1]
				}
			}
		case *ast.CompositeLit:
			fields := predicateFields(p.TypeOf(n))
			var preds []ast.Expr
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok && slices.Contains(fields, key.Name) {
						preds = append(preds, kv.Value)
					}
				}
			}
			return preds
		}
		return nil
	}, func(ft *ast.FuncType, body *ast.BlockStmt) { checkPredicate(p, ft, body) })
}

// checkPredicate runs every invpure obligation over one predicate: no
// writes reaching the state argument, no writes to captured
// variables, no wall-clock or global-random reads, and no
// map-iteration order flowing into the result.
func checkPredicate(p *Pass, ft *ast.FuncType, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	stateWrites(p, ft, body, func(n ast.Node, what string) {
		p.Reportf(n.Pos(), "invariant predicate mutates its state argument (%s); predicates must be pure observations", what)
	})
	// A write to a variable declared outside this function leaks
	// across evaluations.
	captured := func(n ast.Node, lhs ast.Expr) {
		v, ok := p.objectOf(peel(lhs, nil)).(*types.Var)
		if ok && !v.IsField() && (v.Pos() < ft.Pos() || v.Pos() > body.End()) {
			p.Reportf(n.Pos(), "invariant predicate writes captured variable %s; the certificate would depend on evaluation order", v.Name())
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					captured(n, lhs)
				}
			}
		case *ast.IncDecStmt:
			captured(n, n.X)
		case *ast.CallExpr:
			if isBuiltin(p, n, "delete") {
				captured(n, n.Args[0])
			}
			switch fn, kind := nondetCall(p, n); kind {
			case callClock:
				p.Reportf(n.Pos(), "invariant predicate reads the wall clock (time.Now); the verdict becomes irreproducible")
			case callGlobalRand, callRandSource:
				p.Reportf(n.Pos(), "invariant predicate calls %s.%s; a random predicate certifies nothing", fn.Pkg().Path(), fn.Name())
			}
		case *ast.RangeStmt:
			mapOrderFlows(p, n, func(at ast.Node, flow int) {
				switch flow {
				case flowReturn:
					p.Reportf(at.Pos(), "map iteration order flows into the predicate's return value; iterate sorted keys")
				case flowAppend:
					p.Reportf(at.Pos(), "map iteration order flows into an append inside a predicate; iterate sorted keys or sort the result")
				}
			})
		}
		return true
	})
}
