// Package proof provides the hierarchical-verification machinery of
// §2.3 of the paper: leads-to liveness conditions (S ↝ T), decided
// exactly on the reachable graph (CheckLeadsTo) or scanned along a
// finite execution (Pending, MaxLatency), condition-defined execution
// modules, possibilities mappings with mechanical verification,
// corresponding-execution construction (Lemma 28), satisfaction
// checks, and the primitive-decomposition constructions of §2.2.3
// (Lemma 22, Lemma 24, Theorem 23).
package proof

import (
	"context"
	"fmt"

	"repro/internal/explore"
	"repro/internal/ioa"
)

// A LeadsTo is the condition S ↝ T of §2.3.2: whenever the automaton
// is in a state of S, an action of T must eventually be performed.
type LeadsTo struct {
	// Name identifies the condition in diagnostics, e.g. "FwdReq2(a,v)".
	Name string
	// S holds on states that create the obligation.
	S func(ioa.State) bool
	// T holds on actions that discharge the obligation.
	T func(ioa.Action) bool
}

// CheckLeadsTo decides each condition exactly over the fair executions
// of a (§2.2.1): S ↝ T fails iff some reachable S state reaches, by
// steps that are not T actions, a state enabling no locally-controlled
// action (a finite fair execution ends there) or a fair-sustainable
// cycle of such steps. That is ltl's FairEscape — the search behind
// stabilize's convergence verdict — over the region the S states reach
// in the reachable graph by steps that are not T actions. The graph is
// explore.Engine.Graph's, built once for all conditions and
// sequentially whatever Options.Workers says.
//
// The result has one entry per condition: nil where it holds, else a
// lasso whose stem is a minimal execution to an S state followed by
// the T-free path on to the escape, and whose cycle is the fair cycle;
// at a quiescent end the cycle is empty and CycleStates holds the end
// state alone. Options.Canon is refused (refuseCanon).
func CheckLeadsTo(ctx context.Context, a ioa.Automaton, opts explore.Options, conds ...*LeadsTo) ([]*explore.Lasso, error) {
	if err := refuseCanon(opts); err != nil {
		return nil, err
	}
	g, err := explore.New(opts).Graph(ctx, a)
	if err != nil {
		return nil, err
	}
	out := make([]*explore.Lasso, len(conds))
	for ci, c := range conds {
		notT := func(act ioa.Action) bool { return !c.T(act) }
		// prev[v] is v's predecessor on a shortest T-free path from
		// an S state: -1 at an S state, -2 outside the region.
		prev, via := make([]int, len(g.States)), make([]ioa.Action, len(g.States))
		var queue []int
		for v, s := range g.States {
			prev[v] = -2
			if c.S(s) {
				prev[v] = -1
				queue = append(queue, v)
			}
		}
		for ; len(queue) > 0; queue = queue[1:] {
			for _, e := range g.Out(queue[0]) {
				if prev[e.To] == -2 && notT(e.Act) {
					prev[e.To], via[e.To] = queue[0], e.Act
					queue = append(queue, e.To)
				}
			}
		}
		end, acts, nodes, err := g.FairEscape(ctx, a, func(v int) bool { return prev[v] > -2 }, notT)
		if err != nil {
			return nil, err
		}
		if end < 0 {
			continue
		}
		root, path := end, []int(nil) // path: end back to root, root excluded
		for ; prev[root] >= 0; root = prev[root] {
			path = append(path, root)
		}
		stem := g.Witness(root)
		for k := len(path) - 1; k >= 0; k-- {
			stem.Append(via[path[k]], g.States[path[k]])
		}
		l := &explore.Lasso{Stem: stem, Cycle: acts, CycleStates: []ioa.State{g.States[end]}}
		if acts != nil {
			l.CycleStates = g.PathStates(nodes)
		}
		out[ci] = l
	}
	return out, nil
}

// An Obligation records an outstanding S ↝ T obligation on a finite
// execution: the condition held at state index From and no discharging
// action has occurred since.
type Obligation struct {
	Cond *LeadsTo
	// From is the earliest state index after the last discharge at
	// which S held (the obligation's birth).
	From int
}

// Pending scans a finite execution and returns the outstanding
// obligations of the given conditions: for each condition, if S holds
// at some state with no later T action, the earliest such state is
// reported. An execution of an S ↝ T–conditioned module is a prefix of
// a conforming infinite execution iff obligations can still be
// discharged; a finite execution fully satisfies the condition iff no
// obligation is pending at its end.
func Pending(x *ioa.Execution, conds []*LeadsTo) []Obligation {
	var out []Obligation
	for _, c := range conds {
		pendingFrom := -1
		for i := 0; i <= x.Len(); i++ {
			if pendingFrom < 0 && c.S(x.States[i]) {
				pendingFrom = i
			}
			if i < x.Len() && c.T(x.Acts[i]) {
				pendingFrom = -1
			}
		}
		if pendingFrom >= 0 {
			out = append(out, Obligation{Cond: c, From: pendingFrom})
		}
	}
	return out
}

// Satisfies reports whether the finite execution satisfies all
// conditions (no pending obligation at its end).
func Satisfies(x *ioa.Execution, conds []*LeadsTo) bool {
	return len(Pending(x, conds)) == 0
}

// MaxLatency returns, per condition, the maximum number of steps any
// obligation of that condition stayed open during the execution
// (discharged or not; an undischarged obligation counts to the end).
// This is the untimed analogue of the b-bounded conditions of §3.4.
func MaxLatency(x *ioa.Execution, conds []*LeadsTo) map[string]int {
	out := make(map[string]int, len(conds))
	for _, c := range conds {
		worst := 0
		pendingFrom := -1
		for i := 0; i <= x.Len(); i++ {
			if pendingFrom < 0 && c.S(x.States[i]) {
				pendingFrom = i
			}
			if i < x.Len() && c.T(x.Acts[i]) {
				if pendingFrom >= 0 && i+1-pendingFrom > worst {
					worst = i + 1 - pendingFrom
				}
				pendingFrom = -1
			}
		}
		if pendingFrom >= 0 && x.Len()-pendingFrom > worst {
			worst = x.Len() - pendingFrom
		}
		out[c.Name] = worst
	}
	return out
}

// A CondModule is an execution module defined intensionally: the
// executions of an automaton satisfying a conjunction of leads-to
// conditions, optionally guarded by hypothesis conditions (the
// paper's implication form, e.g. C₁ = RtnRes₁ ⊃ GrRes₁: the goals
// need only hold on executions where the hypotheses hold).
type CondModule struct {
	// Name identifies the module, e.g. "E1".
	Name string
	// Auto carries states and signature.
	Auto ioa.Automaton
	// Hypotheses are environment conditions (e.g. RtnRes); Goals are
	// the conditions the module requires when the hypotheses hold.
	Hypotheses []*LeadsTo
	Goals      []*LeadsTo
}

// Verdict classifies a finite execution against a CondModule.
type Verdict int

// Verdicts. A Vacuous verdict means a hypothesis is pending: the
// execution is outside the guarded fragment, so the implication is
// satisfied trivially. Holds means hypotheses and goals are all
// discharged; PendingGoals means the hypotheses held but some goal
// obligation is open (on an infinite continuation it would have to be
// discharged for the execution to be in the module).
const (
	Holds Verdict = iota + 1
	PendingGoals
	Vacuous
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Holds:
		return "holds"
	case PendingGoals:
		return "pending-goals"
	case Vacuous:
		return "vacuous"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Judge evaluates a finite execution against the module.
func (m *CondModule) Judge(x *ioa.Execution) Verdict {
	if len(Pending(x, m.Hypotheses)) > 0 {
		return Vacuous
	}
	if len(Pending(x, m.Goals)) > 0 {
		return PendingGoals
	}
	return Holds
}

// OnComponent lifts a condition on a component automaton's states to
// the composite's tuple states (the state side of Lemma 34: conditions
// of the form S ↝ T transfer between a composition and its components
// by projecting S). The action predicate is unchanged — actions are
// shared between composite and component.
func OnComponent(i int, c *LeadsTo) *LeadsTo {
	return &LeadsTo{
		Name: c.Name,
		S: func(st ioa.State) bool {
			ts, ok := st.(*ioa.TupleState)
			return ok && i < ts.Len() && c.S(ts.At(i))
		},
		T: c.T,
	}
}
