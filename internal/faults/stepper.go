package faults

// Stepper fast paths for the fault wrappers, so fault-injected systems
// ride the explorers' zero-allocation successor visitor exactly like
// clean systems.
// Network and adversary automata are built through ioa.NewDef and
// inherit Prog's VisitNext; the hand-rolled wrappers here (crash,
// clamp) implement their own.

import "repro/internal/ioa"

// VisitNext implements ioa.Stepper for crash wrappers. The hot
// non-fault case — the process is up and the action belongs to the
// inner automaton — wraps each inner successor as it is yielded; the
// fault and down cases delegate to Next, which already allocates at
// most one state (and counts fault metrics exactly once per computed
// transition, a property the delegation preserves).
func (c *crashed) VisitNext(st ioa.State, a ioa.Action, yield func(ioa.State) bool) bool {
	s, ok := st.(*CrashState)
	if !ok {
		return true
	}
	if a == c.crash || a == c.restart || s.down {
		for _, nxt := range c.Next(st, a) {
			if !yield(nxt) {
				return false
			}
		}
		return true
	}
	return ioa.VisitNext(c.inner, s.inner, a, func(nxt ioa.State) bool {
		return yield(newCrashState(false, nxt))
	})
}

var _ ioa.Stepper = (*crashed)(nil)

// VisitNext implements ioa.Stepper for clamp wrappers: each inner
// successor is clamped as it is yielded.
func (c *clamped) VisitNext(s ioa.State, a ioa.Action, yield func(ioa.State) bool) bool {
	return ioa.VisitNext(c.inner, s, a, func(nxt ioa.State) bool {
		return yield(c.fix(nxt))
	})
}

var _ ioa.Stepper = (*clamped)(nil)
