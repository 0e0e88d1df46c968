package ltl

// Graph-level lasso machinery over interned dense state IDs. The
// temporal formulas in this package evaluate over finite executions;
// for *infinite* behavior — "is there a fair execution that pumps this
// cycle forever?" — the explorers and the self-stabilization certifier
// need an explicit transition graph over a finite reachable set. That
// graph lives here: states are interned (internal/store) so positions
// are dense IDs, adjacency is labeled with actions, and the cycle
// search accepts exactly the fair-sustainable cycles of §2.2.1
// condition 2 (every fairness class either acts on the cycle or is
// disabled at some cycle state). explore.FindLasso is a thin client;
// the stabilize package reuses the same graph for its convergence
// pass.

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/ioa"
	"repro/internal/store"
)

// An Edge is one labeled transition of a StateGraph: performing Act
// leads to the state with dense ID To.
type Edge struct {
	Act ioa.Action
	To  int
}

// A StateGraph is an explicit labeled transition graph over a finite
// state set, indexed by dense IDs (position i in States is node i).
// Only transitions that stay inside the set appear; successors outside
// it are silently dropped, so callers should pass a step-closed set
// (e.g. the result of explore's Reach) when they need every step
// represented.
type StateGraph struct {
	States []ioa.State
	Adj    [][]Edge
}

// BuildGraphCanon interns states (position == dense ID, both insertion
// order) and records, for every state and every action satisfying
// allowed (nil allows every action), the successor edges that land
// inside the set. States are stepped by a sorted ioa.Walk — Enabled(s)
// and the inputs, each action once, in sorted order — so the edge order,
// and therefore every search over the graph, is deterministic.
//
// A non-nil canon builds the graph over a symmetry-quotiented state
// set: states holds one concrete orbit representative each (an explorer
// result under the same canonicalizer), and successor membership is
// resolved canonically, so a step landing on any orbit-mate of a set
// member produces an edge to that member's node. Without this, a
// quotiented set would silently lose almost every edge — successors
// are concrete states, and byte-exact lookup would miss their
// representatives.
func BuildGraphCanon(ctx context.Context, a ioa.Automaton, states []ioa.State, allowed func(ioa.Action) bool, canon store.Canonicalizer) (*StateGraph, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	index := store.New(store.Options{Canon: canon})
	for _, s := range states {
		index.Intern(s)
	}
	if err := index.Err(); err != nil {
		return nil, fmt.Errorf("ltl: indexing %s: %w", a.Name(), err)
	}
	g := &StateGraph{States: states, Adj: make([][]Edge, len(states))}
	walk := ioa.NewWalk(a, true)
	var i int
	edge := func(nxt ioa.State) bool {
		if allowed == nil || allowed(walk.Act) {
			if j, ok := index.Has(nxt); ok {
				g.Adj[i] = append(g.Adj[i], Edge{Act: walk.Act, To: int(j)})
			}
		}
		return true
	}
	for i = range states {
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		walk.Visit(states[i], edge)
	}
	return g, nil
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
}

// SCCs returns the strongly connected components of the subgraph
// induced by the nodes satisfying within (nil: every node), by one
// iterative Tarjan pass, linear in the edges. comps lists each
// component's nodes, numbered successors first: an edge of the
// subgraph leaving component c lands in a component numbered below c.
// of maps a node to its component, -1 outside within.
func (g *StateGraph) SCCs(within func(int) bool) (comps [][]int, of []int) {
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
			if f.edge < len(g.Adj[v]) {
				w := g.Adj[v][f.edge].To
				f.edge++
				switch {
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
// the subgraph Within induces that, under Fair, is fair-sustainable.
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
	comps, of := g.SCCs(opts.Within)
	start = -1
	for c, comp := range comps {
		if c&63 == 0 {
			if err := ctx.Err(); err != nil {
				return -1, nil, nil, err
			}
		}
		if least := slices.Min(comp); (start < 0 || least < start) && g.acceptable(a, comp, of, opts.Fair) {
			start = least
		}
	}
	if start < 0 {
		return -1, nil, nil, nil
	}
	acts, nodes = g.tour(a, start, of, opts.Fair)
	return start, acts, nodes, nil
}

// acceptable reports whether component comp carries a cycle and, when
// fair, meets every class of part(A).
func (g *StateGraph) acceptable(a ioa.Automaton, comp []int, of []int, fair bool) bool {
	m := newClassMeter(a, fair)
	cyclic := false
	for _, v := range comp {
		for _, e := range g.Adj[v] {
			if of[e.To] == of[v] {
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
func (g *StateGraph) tour(a ioa.Automaton, start int, of []int, fair bool) (acts []ioa.Action, nodes []int) {
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
	e := g.Adj[start][slices.IndexFunc(g.Adj[start], func(e Edge) bool { return of[e.To] == of[start] })]
	extend([]ioa.Action{e.Act}, []int{e.To})
	for i, c := range m.parts {
		if !m.met[i] {
			extend(g.path(nodes[len(nodes)-1], of,
				func(v int) bool { return !ioa.ClassEnabled(a, g.States[v], c) },
				func(e Edge) bool { return c.Actions.Has(e.Act) }))
		}
	}
	extend(g.path(nodes[len(nodes)-1], of, func(v int) bool { return v == start }, nil))
	return acts, nodes
}

// path returns a shortest walk inside from's component, as its actions
// and the nodes after from: to the nearest node where stop holds, or
// across the nearest edge where cross (nil: none) holds, whichever the
// breadth-first search meets first.
func (g *StateGraph) path(from int, of []int, stop func(int) bool, cross func(Edge) bool) ([]ioa.Action, []int) {
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
		for _, e := range g.Adj[v] {
			if of[e.To] != of[from] {
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
