package faults

import "repro/internal/ioa"

// clamped is the Clamp wrapper automaton.
type clamped struct {
	inner ioa.Automaton
	label string
	fix   func(ioa.State) ioa.State
}

var _ ioa.Automaton = (*clamped)(nil)

// Clamp wraps inner so that every state — the start states and every
// transition result — is first passed through fix. It models a
// permanent state-corruption fault: fix projects each state onto the
// faulty subspace (e.g. forcing a register's value to a constant, so
// writes are acknowledged but silently discarded and reads always
// return the stuck value).
//
// fix must be idempotent and must preserve enabledness of whatever
// actions the fault is not meant to disturb; it is applied after the
// inner transition computes its successors, so preconditions are
// evaluated against already-clamped states.
func Clamp(inner ioa.Automaton, label string, fix func(ioa.State) ioa.State) ioa.Automaton {
	return &clamped{inner: inner, label: label, fix: fix}
}

// Name implements ioa.Automaton.
func (c *clamped) Name() string { return c.inner.Name() + "!" + c.label }

// Sig implements ioa.Automaton.
func (c *clamped) Sig() ioa.Signature { return c.inner.Sig() }

// Start implements ioa.Automaton.
func (c *clamped) Start() []ioa.State {
	inner := c.inner.Start()
	out := make([]ioa.State, len(inner))
	for i, s := range inner {
		out[i] = c.fix(s)
	}
	return out
}

// Next implements ioa.Automaton: each inner successor is clamped as it
// is yielded. The inner automaton steps on the heap whatever sc is, so
// fix never sees a borrowed state.
func (c *clamped) Next(_ *ioa.Scratch, s ioa.State, a ioa.Action, yield func(ioa.State) bool) bool {
	return c.inner.Next(nil, s, a, func(nxt ioa.State) bool {
		return yield(c.fix(nxt))
	})
}

// Enabled implements ioa.Automaton. Next yields exactly when the inner
// Next does, so enabledness coincides with the inner automaton's.
func (c *clamped) Enabled(s ioa.State) []ioa.Action { return c.inner.Enabled(s) }

// Parts implements ioa.Automaton.
func (c *clamped) Parts() []ioa.Class { return c.inner.Parts() }
