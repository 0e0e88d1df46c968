package explore

// Bounded enumeration analyses (behavior sets, schedules, execution
// modules) and cycle search, as Engine methods. These share the
// engine's context plumbing and the interned-store dedup machinery
// with the reachability sweeps in engine.go.

import (
	"context"
	"fmt"
	"io"

	"repro/internal/ioa"
	"repro/internal/ltl"
	"repro/internal/store"
)

// Behaviors computes the set of external behaviors (projections of
// schedules onto ext(A)) of executions of a with at most `depth` total
// steps. The result includes the empty behavior and is prefix-closed.
// State×trace pairs are deduplicated (via the interned store, on the
// state encoding joined with the trace), so internal cycles do not
// diverge.
func (e *Engine) Behaviors(ctx context.Context, a ioa.Automaton, depth int) (*ioa.SchedModule, error) {
	ctx = ctxOr(ctx)
	ext := a.Sig().Ext()
	acts := a.Sig().Acts().Sorted()
	traces := make(map[string][]ioa.Action)
	type cfg struct {
		state ioa.State
		trace []ioa.Action // external trace so far
		steps int
	}
	// BFS order matters for correctness: configurations are
	// deduplicated on (state, external trace), so each must be first
	// visited with the minimal step count (maximal remaining budget).
	seen := store.New(store.Options{})
	var buf []byte
	var queue []cfg
	push := func(c cfg) {
		ts := ioa.TraceString(c.trace)
		buf = ioa.AppendState(buf[:0], c.state)
		buf = append(buf, '|')
		buf = append(buf, ts...)
		if _, fresh := seen.InternEncoded(buf, store.Hash(buf)); !fresh {
			return
		}
		traces[ts] = c.trace
		queue = append(queue, c)
	}
	for _, s := range a.Start() {
		push(cfg{state: s})
	}
	for i := 0; i < len(queue); i++ {
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		c := queue[i]
		if c.steps == depth {
			continue
		}
		for _, act := range acts {
			tr := c.trace
			if ext.Has(act) {
				tr = append(append([]ioa.Action(nil), c.trace...), act)
			}
			a.Next(nil, c.state, act, func(nxt ioa.State) bool {
				push(cfg{state: nxt, trace: tr, steps: c.steps + 1})
				return true
			})
		}
	}
	if err := seen.Err(); err != nil {
		return nil, seenErr(a, err)
	}
	list := make([][]ioa.Action, 0, len(traces))
	for _, tr := range traces {
		//lint:ignore nondet NewSchedModule keys schedules canonically; list order is unobservable
		list = append(list, tr)
	}
	m, err := ioa.NewSchedModule(a.Sig().External(), list)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Schedules computes the set of full schedules (internal actions
// included) of executions of a with at most depth steps, as a schedule
// module over sig(A).
func (e *Engine) Schedules(ctx context.Context, a ioa.Automaton, depth int) (*ioa.SchedModule, error) {
	ctx = ctxOr(ctx)
	acts := a.Sig().Acts().Sorted()
	traces := make(map[string][]ioa.Action)
	type cfg struct {
		state ioa.State
		trace []ioa.Action
	}
	var stack []cfg
	for _, s := range a.Start() {
		stack = append(stack, cfg{state: s})
		traces["ε"] = nil
	}
	steps := 0
	for len(stack) > 0 {
		if steps&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		steps++
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(c.trace) == depth {
			continue
		}
		for _, act := range acts {
			a.Next(nil, c.state, act, func(nxt ioa.State) bool {
				tr := append(append([]ioa.Action(nil), c.trace...), act)
				traces[ioa.TraceString(tr)] = tr
				stack = append(stack, cfg{state: nxt, trace: tr})
				return true
			})
		}
	}
	list := make([][]ioa.Action, 0, len(traces))
	for _, tr := range traces {
		//lint:ignore nondet NewSchedModule keys schedules canonically; list order is unobservable
		list = append(list, tr)
	}
	return ioa.NewSchedModule(a.Sig(), list)
}

// Execs enumerates all executions of a with at most depth steps, as an
// execution module. Intended for small finite automata (the module
// algebra property tests).
func (e *Engine) Execs(ctx context.Context, a ioa.Automaton, depth int) (*ioa.ExecModule, error) {
	ctx = ctxOr(ctx)
	acts := a.Sig().Acts().Sorted()
	var all []*ioa.Execution
	var rec func(x *ioa.Execution) bool
	rec = func(x *ioa.Execution) bool {
		if len(all)&63 == 0 && ctx.Err() != nil {
			return false
		}
		all = append(all, x.Clone())
		if x.Len() == depth {
			return true
		}
		for _, act := range acts {
			ok := true
			a.Next(nil, x.Last(), act, func(nxt ioa.State) bool {
				x.Append(act, nxt)
				ok = rec(x)
				x.Acts = x.Acts[:len(x.Acts)-1]
				x.States = x.States[:len(x.States)-1]
				return ok
			})
			if !ok {
				return false
			}
		}
		return true
	}
	for _, s := range a.Start() {
		if !rec(ioa.NewExecution(a, s)) {
			return nil, ctx.Err()
		}
	}
	return &ioa.ExecModule{Auto: a, Execs: all}, nil
}

// SameBehaviors reports whether a and b exhibit exactly the same
// external behaviors up to the given execution depth, returning a
// distinguishing trace when they differ (bounded unfair-equivalence
// check, §2.1).
func (e *Engine) SameBehaviors(ctx context.Context, a, b ioa.Automaton, depth int) (bool, []ioa.Action, error) {
	ctx = ctxOr(ctx)
	ma, err := e.Behaviors(ctx, a, depth)
	if err != nil {
		return false, nil, err
	}
	mb, err := e.Behaviors(ctx, b, depth)
	if err != nil {
		return false, nil, err
	}
	for _, tr := range ma.Traces() {
		if !mb.Has(tr) {
			return false, tr, nil
		}
	}
	for _, tr := range mb.Traces() {
		if !ma.Has(tr) {
			return false, tr, nil
		}
	}
	return true, nil, nil
}

// A Lasso is a reachable cycle: a stem execution from a start state to
// a state on the cycle, plus the cycle's actions. A lasso of
// proof.CheckLeadsTo may instead end quiescent: Cycle is then empty
// and CycleStates holds the stem's last state alone.
type Lasso struct {
	Stem  *ioa.Execution
	Cycle []ioa.Action
	// CycleStates holds the states visited around the cycle (the
	// first and the last equal the stem's last state).
	CycleStates []ioa.State
}

// FindLasso searches (within the reachable states, up to
// Options.Limit) for a cycle all of whose actions satisfy `allowed`
// (nil allows every action) and that contains at least one action. If
// fair is true, the cycle must additionally be fair-sustainable: every
// class of part(A) must either perform an action on the cycle or be
// disabled at some state of the cycle — exactly the condition under
// which pumping the cycle forever yields a fair infinite execution
// (§2.2.1 condition 2). Returns nil if no such lasso exists.
//
// The graph is Graph's; the cycle search is ltl's FindCycle, shared with the
// self-stabilization certifier, and the stem is the graph's minimal
// witness. Options.Canon is refused by name before exploring: a cycle
// over orbit representatives is not an execution, and a symmetry may
// permute the fairness classes.
func (e *Engine) FindLasso(ctx context.Context, a ioa.Automaton, allowed func(ioa.Action) bool, fair bool) (*Lasso, error) {
	ctx = ctxOr(ctx)
	if c := e.opts.Canon; c != nil {
		return nil, fmt.Errorf("explore: FindLasso: Options.Canon (%s) is not supported: a cycle over orbit representatives is not an execution", c.Name())
	}
	g, err := e.Graph(ctx, a)
	if err != nil {
		return nil, err
	}
	start, cycle, nodes, err := g.FindCycle(ctx, a, ltl.CycleOptions{Fair: fair, Allowed: allowed})
	if err != nil || cycle == nil {
		return nil, err
	}
	return &Lasso{Stem: g.Witness(start), Cycle: cycle, CycleStates: g.PathStates(nodes)}, nil
}

// WriteDOT renders the reachable state graph of a (up to
// Options.Limit states) in Graphviz DOT format: one node per state,
// one edge per step, labeled with the action. External actions are
// drawn solid, internal actions dashed. The graph is Graph's, so under
// Options.Canon it draws the quotient. Useful for inspecting small
// automata and the figure examples.
func (e *Engine) WriteDOT(ctx context.Context, w io.Writer, a ioa.Automaton) error {
	g, err := e.Graph(ctx, a)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=LR;\n", a.Name()); err != nil {
		return err
	}
	for i, s := range g.States {
		shape := "ellipse"
		if i < g.Starts {
			shape = "doublecircle"
		}
		if _, err := fmt.Fprintf(w, "  n%d [label=%q, shape=%s];\n", i, s.Key(), shape); err != nil {
			return err
		}
	}
	ext := a.Sig().Ext()
	for i := range g.States {
		for _, e := range g.Out(i) {
			style := "solid"
			if !ext.Has(e.Act) {
				style = "dashed"
			}
			if _, err := fmt.Fprintf(w, "  n%d -> n%d [label=%q, style=%s];\n", i, e.To, e.Act, style); err != nil {
				return err
			}
		}
	}
	_, err = fmt.Fprintln(w, "}")
	return err
}
