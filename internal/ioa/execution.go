package ioa

import (
	"fmt"
	"strings"
)

// An Execution is a finite execution (or execution fragment) of an
// automaton: an alternating sequence s₀ π₁ s₁ π₂ s₂ … of states and
// actions with (sᵢ, πᵢ₊₁, sᵢ₊₁) ∈ steps(A) (§2.1). Infinite executions
// are approximated by long finite prefixes together with fairness
// accounting (see fair.go and internal/sim).
type Execution struct {
	// Auto is the automaton this is an execution of.
	Auto Automaton
	// States holds len(Acts)+1 states.
	States []State
	// Acts holds the actions of the execution in order.
	Acts []Action
}

// NewExecution starts an execution at the given state.
func NewExecution(a Automaton, start State) *Execution {
	return &Execution{Auto: a, States: []State{start}}
}

// Len returns the number of steps.
func (x *Execution) Len() int { return len(x.Acts) }

// Last returns the final state.
func (x *Execution) Last() State { return x.States[len(x.States)-1] }

// First returns the initial state.
func (x *Execution) First() State { return x.States[0] }

// Append extends the execution by one step. It does not validate the
// step; use Extend for validated extension.
func (x *Execution) Append(a Action, to State) {
	x.Acts = append(x.Acts, a)
	x.States = append(x.States, to)
}

// Extend performs action a from the final state, choosing successor
// pick (mod the number of successors), and returns an error if a is
// not enabled.
func (x *Execution) Extend(a Action, pick int) error {
	to, ok := StepTo(x.Auto, x.Last(), a, pick)
	if !ok {
		return fmt.Errorf("ioa: action %q not enabled from state %q", a, x.Last().Key())
	}
	x.Append(a, to)
	return nil
}

// Schedule returns sched(x): the subsequence of actions appearing in x
// (which, for an execution, is all of Acts).
func (x *Execution) Schedule() []Action { return append([]Action(nil), x.Acts...) }

// Behavior returns the external schedule sched(x)|ext(A) — the
// externally visible behavior of the execution.
func (x *Execution) Behavior() []Action {
	return x.Auto.Sig().Ext().Project(x.Acts)
}

// Project returns sched(x)|Π for an arbitrary action set Π.
func (x *Execution) Project(acts Set) []Action { return acts.Project(x.Acts) }

// Clone returns a deep copy (states are shared; they are immutable).
func (x *Execution) Clone() *Execution {
	return &Execution{
		Auto:   x.Auto,
		States: append([]State(nil), x.States...),
		Acts:   append([]Action(nil), x.Acts...),
	}
}

// Prefix returns the prefix of x with n steps.
func (x *Execution) Prefix(n int) *Execution {
	if n > x.Len() {
		n = x.Len()
	}
	return &Execution{
		Auto:   x.Auto,
		States: append([]State(nil), x.States[:n+1]...),
		Acts:   append([]Action(nil), x.Acts[:n]...),
	}
}

// Validate checks that x really is an execution fragment of its
// automaton: every (sᵢ, πᵢ₊₁) pair must admit sᵢ₊₁ as a successor.
// If fromStart is true the first state must be a start state.
func (x *Execution) Validate(fromStart bool) error {
	if len(x.States) != len(x.Acts)+1 {
		return fmt.Errorf("ioa: malformed execution: %d states, %d actions", len(x.States), len(x.Acts))
	}
	if fromStart {
		ok := false
		for _, s := range x.Auto.Start() {
			if s.Key() == x.States[0].Key() {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("ioa: execution does not begin at a start state of %s", x.Auto.Name())
		}
	}
	for i, a := range x.Acts {
		want := x.States[i+1].Key()
		if x.Auto.Next(nil, x.States[i], a, func(nxt State) bool { return nxt.Key() != want }) {
			return fmt.Errorf("ioa: step %d (%q) is not a step of %s", i, a, x.Auto.Name())
		}
	}
	return nil
}

// String renders the execution compactly: s0 -a1-> s1 -a2-> ...
func (x *Execution) String() string {
	var b strings.Builder
	b.WriteString(x.States[0].Key())
	for i, a := range x.Acts {
		fmt.Fprintf(&b, " -%s-> %s", a, x.States[i+1].Key())
	}
	return b.String()
}
