// Package explore provides finite-state analysis of input-output
// automata: reachability, invariant checking with minimal witnesses,
// state censuses, bounded behavior-set computation, and lassos used to
// reason about infinite (fair and unfair) behaviors of finite
// automata.
//
// The entry point is the Engine facade: construct one from Options
// (state budget, observability handle, the census's disk spill,
// symmetry reduction) with New and call its context-aware
// methods —
//
//	eng := explore.New(explore.Options{Limit: 1 << 20})
//	states, err := eng.Reach(ctx, a)
//
// All explorers dedup through internal/store (byte-encoded interned
// states with dense IDs), in RAM but for Census with Options.Spill, the
// one out-of-core loop. The exhaustive loops enumerate successors
// through an ioa.Walk, which lends each one from per-goroutine scratch
// memory and lets the loop keep the few that are new; the bounded
// enumerators step with a nil scratch and get heap states. See
// engine.go. The pre-store string-keyed explorer is
// preserved in reference.go as the differential-testing oracle.
package explore

import (
	"errors"
	"fmt"

	"repro/internal/ioa"
)

// ErrLimit is returned when exploration exceeds its state budget.
var ErrLimit = errors.New("explore: state limit exceeded")

// errLimit wraps ErrLimit with the automaton and budget, the one
// format every explorer shares.
func errLimit(a ioa.Automaton, limit int) error {
	return fmt.Errorf("%w: limit %d on %s", ErrLimit, limit, a.Name())
}

// A Violation reports an invariant failure at a reachable state.
type Violation struct {
	State ioa.State
	// Trace is a witness execution from a start state to State.
	Trace *ioa.Execution
}

// closedWorld removes an automaton's input actions from its signature
// and transition relation. Its numbering is its own signature's: down
// carries each number to the inner automaton's, up brings an inner
// number back, -1 for a removed input.
type closedWorld struct {
	inner    ioa.Automaton
	num      ioa.Numbered // inner, numbered
	sig      ioa.Signature
	acts     []ioa.Action
	down, up []int32
}

var _ ioa.Numbered = (*closedWorld)(nil)

// ClosedWorld treats a composition as a closed system: residual input
// actions — those no component outputs, i.e. pure environment actions
// — are removed entirely. Use it before exhaustive analysis of a
// composition that is conceptually closed; otherwise Reach and
// CheckInvariant explore arbitrary (often meaningless) environment
// inputs, since every automaton is input-enabled by definition.
func ClosedWorld(a ioa.Automaton) ioa.Automaton {
	sig := a.Sig()
	closed, err := ioa.NewSignature(nil, sig.Outputs().Sorted(), sig.Internals().Sorted())
	if err != nil {
		// Outputs and internals of a valid signature are disjoint.
		panic(fmt.Sprintf("explore: internal error: %v", err))
	}
	c := &closedWorld{inner: a, num: ioa.Number(a), sig: closed, acts: closed.Acts().Sorted()}
	for _, act := range c.num.Actions() {
		c.up = append(c.up, -1)
		if closed.HasAction(act) {
			c.up[len(c.up)-1] = int32(len(c.down))
			c.down = append(c.down, int32(len(c.up)-1))
		}
	}
	return c
}

// Name implements Automaton.
func (c *closedWorld) Name() string { return c.inner.Name() + "-closed" }

// Sig implements Automaton.
func (c *closedWorld) Sig() ioa.Signature { return c.sig }

// Start implements Automaton.
func (c *closedWorld) Start() []ioa.State { return c.inner.Start() }

// Next implements Automaton: removed environment inputs have no steps;
// everything else steps the inner automaton, in sc too.
func (c *closedWorld) Next(sc *ioa.Scratch, s ioa.State, a ioa.Action, yield func(ioa.State) bool) bool {
	return !c.sig.HasAction(a) || c.inner.Next(sc, s, a, yield)
}

// Enabled implements Automaton.
func (c *closedWorld) Enabled(s ioa.State) []ioa.Action { return c.inner.Enabled(s) }

// Actions implements ioa.Numbered.
func (c *closedWorld) Actions() []ioa.Action { return c.acts }

// NextNum implements ioa.Numbered.
func (c *closedWorld) NextNum(sc *ioa.Scratch, s ioa.State, i int32, yield func(ioa.State) bool) bool {
	return c.num.NextNum(sc, s, c.down[i], yield)
}

// AppendEnabled implements ioa.Numbered: the inner automaton's numbers,
// carried up in place, less any removed input it reports.
func (c *closedWorld) AppendEnabled(dst []int32, s ioa.State) []int32 {
	all := c.num.AppendEnabled(dst, s)
	out := all[:len(dst)]
	for _, i := range all[len(dst):] {
		if j := c.up[i]; j >= 0 {
			out = append(out, j)
		}
	}
	return out
}

// Parts implements Automaton.
func (c *closedWorld) Parts() []ioa.Class { return c.inner.Parts() }
