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

// BuildGraph interns states (position == dense ID, both insertion
// order) and records, for every state and every action of sig(A)
// satisfying allowed (nil allows every action), the successor edges
// that land inside the set. Actions are probed in sorted order, so the
// edge order — and therefore every search over the graph — is
// deterministic.
func BuildGraph(ctx context.Context, a ioa.Automaton, states []ioa.State, allowed func(ioa.Action) bool) (*StateGraph, error) {
	return BuildGraphCanon(ctx, a, states, allowed, nil)
}

// BuildGraphCanon is BuildGraph over a symmetry-quotiented state set:
// states holds one concrete orbit representative each (an explorer
// result under the same canonicalizer), and successor membership is
// resolved canonically, so a step landing on any orbit-mate of a set
// member produces an edge to that member's node. Without this, a
// quotiented set would silently lose almost every edge — successors
// are concrete states, and byte-exact lookup would miss their
// representatives. canon nil is plain BuildGraph.
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
	acts := a.Sig().Acts().Sorted()
	g := &StateGraph{States: states, Adj: make([][]Edge, len(states))}
	for i, s := range states {
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for _, act := range acts {
			if allowed != nil && !allowed(act) {
				continue
			}
			ioa.VisitNext(a, s, act, func(nxt ioa.State) bool {
				if j, ok := index.Has(nxt); ok {
					g.Adj[i] = append(g.Adj[i], Edge{Act: act, To: int(j)})
				}
				return true
			})
		}
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

// FindCycleFrom searches for a nonempty path start → … → start by
// bounded DFS over simple paths (cycle length ≤ number of states). It
// returns the cycle's actions and its node sequence (first and last
// both start), or nil when no acceptable cycle exists. The search
// order is deterministic: edges are tried in adjacency order, which
// BuildGraph fixes to sorted-action order.
//
// The simple-path bound is an approximation for Fair searches: a fair
// cycle that revisits an intermediate node (a non-simple cycle) whose
// simple sub-cycles are all unfair would be missed. Callers that
// certify from a negative answer must carry that caveat (explore's
// FindLasso and stabilize's convergence check both document it).
func (g *StateGraph) FindCycleFrom(a ioa.Automaton, start int, opts CycleOptions) ([]ioa.Action, []int) {
	var bestActs []ioa.Action
	var bestNodes []int
	var dfs func(node int, acts []ioa.Action, onPath map[int]bool, path []int) bool
	dfs = func(node int, acts []ioa.Action, onPath map[int]bool, path []int) bool {
		for _, e := range g.Adj[node] {
			if opts.Within != nil && !opts.Within(e.To) {
				continue
			}
			if e.To == start {
				candidate := append(append([]ioa.Action(nil), acts...), e.Act)
				nodes := append(append([]int(nil), path...), node, start)
				if !opts.Fair || FairSustainable(a, candidate, g.PathStates(nodes)) {
					bestActs, bestNodes = candidate, nodes
					return true
				}
			}
			if !onPath[e.To] && e.To != start {
				onPath[e.To] = true
				if dfs(e.To, append(acts, e.Act), onPath, append(path, node)) {
					return true
				}
				delete(onPath, e.To)
			}
		}
		return false
	}
	onPath := map[int]bool{start: true}
	if dfs(start, nil, onPath, nil) {
		return bestActs, bestNodes
	}
	return nil, nil
}

// FindCycle scans nodes in ID order and returns the first acceptable
// cycle: the start node, the cycle's actions, and its node sequence.
// start is -1 when no cycle exists.
func (g *StateGraph) FindCycle(ctx context.Context, a ioa.Automaton, opts CycleOptions) (start int, acts []ioa.Action, nodes []int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for s := range g.States {
		if err := ctx.Err(); err != nil {
			return -1, nil, nil, err
		}
		if opts.Within != nil && !opts.Within(s) {
			continue
		}
		acts, nodes := g.FindCycleFrom(a, s, opts)
		if acts != nil {
			return s, acts, nodes, nil
		}
	}
	return -1, nil, nil, nil
}

// FairSustainable reports whether pumping the given cycle forever
// yields a fair execution of a: every class of part(A) either performs
// an action on the cycle or is disabled at some cycle state.
func FairSustainable(a ioa.Automaton, cycle []ioa.Action, cycleStates []ioa.State) bool {
	for _, c := range a.Parts() {
		acted := false
		for _, act := range cycle {
			if c.Actions.Has(act) {
				acted = true
				break
			}
		}
		if acted {
			continue
		}
		disabled := false
		for _, s := range cycleStates {
			if !ioa.ClassEnabled(a, s, c) {
				disabled = true
				break
			}
		}
		if !disabled {
			return false
		}
	}
	return true
}
