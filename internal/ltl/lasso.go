// Package ltl decides liveness on an explicit transition graph. For
// infinite behaviour — "is there a fair execution that stays in this
// region forever?" — the reachable states of a finite automaton form a
// StateGraph, recorded by explore.Engine.Graph in one sequential
// breadth-first pass: node IDs are discovery positions, adjacency is
// labeled with actions, and each node keeps the edge that discovered
// it. FindCycle accepts exactly the fair-sustainable cycles of §2.2.1
// condition 2 (every fairness class either acts on the cycle or is
// disabled at some cycle state), one strongly connected component at a
// time, and FairEscape adds the finite fair executions — a state
// enabling no locally-controlled action. FairEscape is the one liveness
// decision procedure: the stabilize convergence pass and
// proof.CheckLeadsTo both call it; explore.FindLasso and WriteDOT use
// the graph and the cycle search. Every search walks nodes and edges in
// ID order, so its answer does not depend on the engine's worker count.
package ltl

import (
	"context"
	"slices"

	"repro/internal/ioa"
)

// An Edge is one labeled transition of a StateGraph: performing Act
// leads to the state with dense ID To.
type Edge struct {
	Act ioa.Action
	To  int
}

// A StateGraph is the reachable transition graph of Auto as
// explore.Engine.Graph records it. Node i is States[i], in
// breadth-first discovery order; the first Starts nodes are the
// distinct start states. The edges are stored as compressed sparse
// rows: node v's edges are Edges[Off[v]:Off[v+1]] (Out), in ioa.Walk's
// sorted order. Parent[v] is the node whose expansion discovered v, -1
// at a start state.
type StateGraph struct {
	Auto   ioa.Automaton
	States []ioa.State
	Starts int
	Edges  []Edge
	Off    []int
	Parent []int
}

// Out returns node v's outgoing edges.
func (g *StateGraph) Out(v int) []Edge { return g.Edges[g.Off[v]:g.Off[v+1]] }

// Witness returns a minimal execution from a start state to node v: it
// follows the edges that first discovered each node, the witness a
// breadth-first invariant check reports.
func (g *StateGraph) Witness(v int) *ioa.Execution {
	var path []int // v back to its start, the start excluded
	for ; g.Parent[v] >= 0; v = g.Parent[v] {
		path = append(path, v)
	}
	x := ioa.NewExecution(g.Auto, g.States[v])
	for i := len(path) - 1; i >= 0; i-- {
		// The first edge from the parent to u is the one that found it.
		u := path[i]
		out := g.Out(g.Parent[u])
		x.Append(out[slices.IndexFunc(out, func(e Edge) bool { return e.To == u })].Act, g.States[u])
	}
	return x
}

// PathStates maps a node sequence to its states.
func (g *StateGraph) PathStates(nodes []int) []ioa.State {
	out := make([]ioa.State, len(nodes))
	for i, n := range nodes {
		out[i] = g.States[n]
	}
	return out
}

// CycleOptions parameterizes a cycle search.
type CycleOptions struct {
	// Fair accepts only fair-sustainable cycles: every class of
	// part(A) either performs an action on the cycle or is disabled at
	// some cycle state, exactly the condition under which pumping the
	// cycle forever yields a fair infinite execution (§2.2.1
	// condition 2).
	Fair bool
	// Within, when non-nil, restricts the search to nodes satisfying
	// it (start, intermediate, and closing nodes alike). The stabilize
	// convergence pass uses this to look for cycles that never touch
	// the legitimate set.
	Within func(int) bool
	// Allowed, when non-nil, restricts the search to edges whose
	// action satisfies it: explore.FindLasso's action filter, the
	// leads-to check's T-free steps.
	Allowed func(ioa.Action) bool
}

// SCCs returns the strongly connected components of the subgraph
// induced by the nodes satisfying within and the edges whose action
// satisfies allowed (nil: every node, every edge), by one iterative
// Tarjan pass, linear in the edges. comps lists each
// component's nodes, numbered successors first: an edge of the
// subgraph leaving component c lands in a component numbered below c.
// of maps a node to its component, -1 outside within.
func (g *StateGraph) SCCs(within func(int) bool, allowed func(ioa.Action) bool) (comps [][]int, of []int) {
	n := len(g.States)
	of = make([]int, n)
	index := make([]int, n) // DFS number from 1; 0 unvisited, -1 outside within
	low := make([]int, n)
	for v := range of {
		of[v] = -1
		if within != nil && !within(v) {
			index[v] = -1
		}
	}
	type frame struct{ node, edge int }
	var call []frame
	var stack []int
	next := 0
	visit := func(v int) {
		next++
		index[v], low[v] = next, next
		stack = append(stack, v)
		call = append(call, frame{node: v})
	}
	for root := range n {
		if index[root] != 0 {
			continue
		}
		visit(root)
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.node
			if out := g.Out(v); f.edge < len(out) {
				e := out[f.edge]
				f.edge++
				w := e.To
				switch {
				case allowed != nil && !allowed(e.Act):
				case index[w] == 0:
					visit(w)
				case index[w] > 0 && of[w] < 0: // on the stack
					low[v] = min(low[v], index[w])
				}
				continue
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].node
				low[p] = min(low[p], low[v])
			}
			if low[v] == index[v] {
				k := len(stack) - 1
				for stack[k] != v { // scan from the top: linear overall
					k--
				}
				for _, u := range stack[k:] {
					of[u] = len(comps)
				}
				comps = append(comps, slices.Clone(stack[k:]))
				stack = stack[:k]
			}
		}
	}
	return comps, of
}

// FindCycle returns an acceptable cycle: a nonempty closed walk inside
// the subgraph Within and Allowed induce that, under Fair, is
// fair-sustainable.
// One exists exactly when some strongly connected component of that
// subgraph is cyclic (two or more nodes, or one with a self-loop) and,
// under Fair, every class of part(A) labels an edge inside it or is
// disabled at one of its states: a tour of the whole component then
// meets every class, and a walk over part of it can only meet fewer.
// The search is one SCCs pass plus one pass per component, linear in
// the edges.
//
// start is the least node of any acceptable component, or -1 when
// there is none. The cycle begins and ends there; nodes is its node
// sequence. It takes the first edge out of start that stays in the
// component, then, for each class not yet met, a shortest path to the
// nearest state disabling it or across the nearest edge it labels,
// then a shortest path home.
func (g *StateGraph) FindCycle(ctx context.Context, a ioa.Automaton, opts CycleOptions) (start int, acts []ioa.Action, nodes []int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return -1, nil, nil, err
	}
	comps, of := g.SCCs(opts.Within, opts.Allowed)
	inside := func(v int, e Edge) bool {
		return of[e.To] == of[v] && (opts.Allowed == nil || opts.Allowed(e.Act))
	}
	start = -1
	for c, comp := range comps {
		if c&63 == 0 {
			if err := ctx.Err(); err != nil {
				return -1, nil, nil, err
			}
		}
		if least := slices.Min(comp); (start < 0 || least < start) && g.acceptable(a, comp, inside, opts.Fair) {
			start = least
		}
	}
	if start < 0 {
		return -1, nil, nil, nil
	}
	acts, nodes = g.tour(a, start, inside, opts.Fair)
	return start, acts, nodes, nil
}

// FairEscape is the one liveness search: it looks for a fair
// execution of a that, once inside region (nil: every node), never
// leaves it by steps whose action satisfies allowed (nil: any step).
// That is FindCycle's fair cycle over those nodes and edges, end its
// start; else the least node of region at which a enables no
// locally-controlled action — a finite fair execution may stop there
// —, acts and nodes nil; else end is -1: every fair execution through
// region leaves it. A fair cycle, when there is one, is the witness:
// on an open automaton a quiescent node often lies on a fair cycle of
// input steps too, and stabilize certificates report that cycle. The
// stabilize convergence pass asks about the complement of the
// legitimate set, the leads-to check about the states an S state
// reaches by steps that are not T actions.
func (g *StateGraph) FairEscape(ctx context.Context, a ioa.Automaton, region func(int) bool, allowed func(ioa.Action) bool) (end int, acts []ioa.Action, nodes []int, err error) {
	if end, acts, nodes, err = g.FindCycle(ctx, a, CycleOptions{Fair: true, Within: region, Allowed: allowed}); end >= 0 || err != nil {
		return end, acts, nodes, err
	}
	for v, s := range g.States {
		if (region == nil || region(v)) && len(a.Enabled(s)) == 0 {
			return v, nil, nil, nil
		}
	}
	return -1, nil, nil, nil
}

// acceptable reports whether component comp carries a cycle and, when
// fair, meets every class of part(A); inside says which edges stay in
// a node's component.
func (g *StateGraph) acceptable(a ioa.Automaton, comp []int, inside func(int, Edge) bool, fair bool) bool {
	m := newClassMeter(a, fair)
	cyclic := false
	for _, v := range comp {
		for _, e := range g.Out(v) {
			if inside(v, e) {
				cyclic = true
				m.act(e.Act)
			}
		}
	}
	if !cyclic {
		return false
	}
	for _, v := range comp {
		m.state(g.States[v])
	}
	return m.left == 0
}

// tour builds FindCycle's witness walk from start inside its component.
func (g *StateGraph) tour(a ioa.Automaton, start int, inside func(int, Edge) bool, fair bool) (acts []ioa.Action, nodes []int) {
	m := newClassMeter(a, fair)
	extend := func(as []ioa.Action, ns []int) {
		for _, act := range as {
			m.act(act)
		}
		for _, v := range ns {
			m.state(g.States[v])
		}
		acts, nodes = append(acts, as...), append(nodes, ns...)
	}
	extend(nil, []int{start})
	out := g.Out(start)
	e := out[slices.IndexFunc(out, func(e Edge) bool { return inside(start, e) })]
	extend([]ioa.Action{e.Act}, []int{e.To})
	for i, c := range m.parts {
		if !m.met[i] {
			extend(g.path(nodes[len(nodes)-1], inside,
				func(v int) bool { return !ioa.ClassEnabled(a, g.States[v], c) },
				func(e Edge) bool { return c.Actions.Has(e.Act) }))
		}
	}
	extend(g.path(nodes[len(nodes)-1], inside, func(v int) bool { return v == start }, nil))
	return acts, nodes
}

// path returns a shortest walk inside from's component, as its actions
// and the nodes after from: to the nearest node where stop holds, or
// across the nearest edge where cross (nil: none) holds, whichever the
// breadth-first search meets first.
func (g *StateGraph) path(from int, inside func(int, Edge) bool, stop func(int) bool, cross func(Edge) bool) ([]ioa.Action, []int) {
	type back struct {
		prev int
		act  ioa.Action
	}
	prev := map[int]back{from: {prev: -1}}
	unwind := func(v int) (as []ioa.Action, ns []int) {
		for ; v != from; v = prev[v].prev {
			as, ns = append(as, prev[v].act), append(ns, v)
		}
		slices.Reverse(as)
		slices.Reverse(ns)
		return as, ns
	}
	for queue := []int{from}; len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		if stop(v) {
			return unwind(v)
		}
		for _, e := range g.Out(v) {
			if !inside(v, e) {
				continue
			}
			if cross != nil && cross(e) {
				as, ns := unwind(v)
				return append(as, e.Act), append(ns, e.To)
			}
			if _, seen := prev[e.To]; !seen {
				prev[e.To] = back{prev: v, act: e.Act}
				queue = append(queue, e.To)
			}
		}
	}
	panic("ltl: path target outside a strongly connected component")
}

// A classMeter tracks which classes of part(A) a set of actions and
// states meets: a class is met by an action it contains or by a state
// where it is disabled.
type classMeter struct {
	a     ioa.Automaton
	parts []ioa.Class
	met   []bool
	left  int
}

// newClassMeter meters every class of part(A), or none unless fair.
func newClassMeter(a ioa.Automaton, fair bool) *classMeter {
	m := &classMeter{a: a}
	if fair {
		m.parts = a.Parts()
		m.met, m.left = make([]bool, len(m.parts)), len(m.parts)
	}
	return m
}

func (m *classMeter) act(act ioa.Action) {
	for i, c := range m.parts {
		if !m.met[i] && c.Actions.Has(act) {
			m.met[i] = true
			m.left--
		}
	}
}

func (m *classMeter) state(s ioa.State) {
	for i, c := range m.parts {
		if m.left > 0 && !m.met[i] && !ioa.ClassEnabled(m.a, s, c) {
			m.met[i] = true
			m.left--
		}
	}
}

// FairSustainable reports whether pumping the given cycle forever
// yields a fair execution of a: every class of part(A) either performs
// an action on the cycle or is disabled at some cycle state.
func FairSustainable(a ioa.Automaton, cycle []ioa.Action, cycleStates []ioa.State) bool {
	m := newClassMeter(a, true)
	for _, act := range cycle {
		m.act(act)
	}
	for _, s := range cycleStates {
		m.state(s)
	}
	return m.left == 0
}
