package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// nondet flags sources of run-to-run nondeterminism in production
// code: wall-clock reads (time.Now), uses of the global math/rand
// source (whose sequence depends on process-global state), and map
// iteration whose order leaks into an appended slice, a channel, or a
// printed trace. The determinism guarantee of the parallel explorer —
// bit-identical results at any worker count — rests on these
// conventions, so the analyzer makes them mechanical.
//
// internal/testseed is exempt: it is the repository's single
// sanctioned gateway for seeds, random sources, and wall-clock
// readings. The map-iteration check applies only to the
// trace-producing packages internal/{ioa,explore,sim,bench,graph};
// elsewhere map order is allowed to vary as long as it never reaches
// an output. Inside those same trace packages the math/rand
// constructors (rand.New, rand.NewSource, ...) are flagged too:
// production code there must accept an injected *rand.Rand or call
// testseed.Source, so every seed is auditable at the gateway.
type nondet struct{}

func init() { Register(nondet{}) }

func (nondet) Name() string { return "nondet" }

func (nondet) Doc() string {
	return "flags time.Now, global math/rand calls, and map-iteration order leaking into traces"
}

// tracePkgs are the internal packages whose outputs must be
// bit-identical across runs and worker counts.
var tracePkgs = map[string]bool{
	"ioa": true, "explore": true, "sim": true, "bench": true, "graph": true,
}

// randConstructors are the package-level math/rand functions that do
// NOT touch the global source (they build or seed explicit ones). They
// are allowed outside the trace packages; inside them, every random
// source must be injected or come from testseed.Source so the seed
// discipline stays auditable in one place.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func (nondet) Run(p *Pass) {
	if internalSegment(p.Pkg.Path) == "testseed" {
		return
	}
	checkRanges := tracePkgs[internalSegment(p.Pkg.Path)]
	for _, f := range p.Pkg.Files {
		sorted := collectSortCalls(p, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				switch fn, kind := nondetCall(p, n); kind {
				case callClock:
					p.Reportf(n.Pos(), "time.Now makes runs irreproducible; inject a clock or route through internal/testseed")
				case callGlobalRand:
					p.Reportf(n.Pos(), "%s.%s draws from the process-global random source; use a seeded *rand.Rand (e.g. from internal/testseed)",
						fn.Pkg().Path(), fn.Name())
				case callRandSource:
					if checkRanges {
						p.Reportf(n.Pos(), "%s.%s builds an ad-hoc random source in a trace package; accept an injected *rand.Rand or use testseed.Source",
							fn.Pkg().Path(), fn.Name())
					}
				}
			case *ast.RangeStmt:
				if !checkRanges {
					break
				}
				mapOrderFlows(p, n, func(at ast.Node, flow int) {
					switch flow {
					case flowAppend:
						// The collect-then-sort idiom erases iteration
						// order: a slice sorted after the range is exempt.
						for _, pos := range sorted[sliceObj(p, at.(*ast.CallExpr).Args[0])] {
							if pos > n.End() {
								return
							}
						}
						p.Reportf(at.Pos(), "map iteration order flows into append; iterate sorted keys or sort the result")
					case flowPrint:
						p.Reportf(at.Pos(), "map iteration order flows into fmt.%s output; iterate sorted keys", p.CalleeFunc(at.(*ast.CallExpr)).Name())
					case flowSend:
						p.Reportf(at.Pos(), "map iteration order flows into a channel send; iterate sorted keys")
					}
				})
			}
			return true
		})
	}
}

// Kinds of call nondetCall tells apart.
const (
	callOther      = iota
	callClock      // time.Now
	callGlobalRand // a math/rand function drawing from the process-global source
	callRandSource // a math/rand constructor building an explicit source
)

// nondetCall classifies a call of a package-level function of time,
// math/rand, or math/rand/v2 that makes runs irreproducible. Methods
// (on an explicit, already-constructed source) are callOther.
func nondetCall(p *Pass, call *ast.CallExpr) (*types.Func, int) {
	fn := p.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return fn, callOther
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			return fn, callClock
		}
	case "math/rand", "math/rand/v2":
		if randConstructors[fn.Name()] {
			return fn, callRandSource
		}
		return fn, callGlobalRand
	}
	return fn, callOther
}

// collectSortCalls records, per slice object, the positions of
// sort.*/slices.Sort* calls on it within the file. An append inside a
// map range is exempt when the collected slice is sorted afterwards —
// the canonical collect-then-sort idiom erases iteration order.
func collectSortCalls(p *Pass, f *ast.File) map[types.Object][]token.Pos {
	out := make(map[types.Object][]token.Pos)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := p.CalleeFunc(call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		if obj := sliceObj(p, call.Args[0]); obj != nil {
			out[obj] = append(out[obj], call.Pos())
		}
		return true
	})
	return out
}

// sliceObj resolves the object a slice expression names: a variable,
// or the field object of a selector.
func sliceObj(p *Pass, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return p.objectOf(x)
	case *ast.SelectorExpr:
		return p.objectOf(x.Sel)
	}
	return nil
}

// Ways an iteration variable of a map range reaches an observable.
const (
	flowReturn = iota // a return result
	flowAppend        // an appended value (the node is the append call)
	flowPrint         // an argument of a fmt function (the node is the call)
	flowSend          // a channel send
)

// mapOrderFlows walks the body of a range over a map and calls report
// at every return, append, fmt call, or channel send that an iteration
// variable flows into: the ways unspecified map order becomes
// observable. Each analyzer decides which of these it reports.
// Condition-only use (existence tests, counting) reaches none of them.
func mapOrderFlows(p *Pass, rng *ast.RangeStmt, report func(n ast.Node, flow int)) {
	t := p.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	iterVars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" && p.objectOf(id) != nil {
			iterVars[p.objectOf(id)] = true
		}
	}
	if len(iterVars) == 0 {
		return
	}
	usesIter := func(es ...ast.Expr) bool {
		found := false
		for _, e := range es {
			ast.Inspect(e, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && iterVars[p.Pkg.Info.Uses[id]] {
					found = true
				}
				return !found
			})
		}
		return found
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			if usesIter(n.Results...) {
				report(n, flowReturn)
			}
		case *ast.SendStmt:
			if usesIter(n.Value) {
				report(n, flowSend)
			}
		case *ast.CallExpr:
			if isBuiltin(p, n, "append") {
				if usesIter(n.Args[1:]...) {
					report(n, flowAppend)
				}
			} else if fn := p.CalleeFunc(n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && usesIter(n.Args...) {
				report(n, flowPrint)
			}
		}
		return true
	})
}
