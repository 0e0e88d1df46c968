package ioa

// hidden is Hide_Σ(A): the automaton differing from A only in its
// signature, where the actions of Σ occurring in A have been moved to
// the internal component (§2.1.2).
type hidden struct {
	inner Automaton
	sig   Signature
	// newlyLocal holds former input actions of the inner automaton
	// that became internal (and hence locally controlled) by hiding.
	// Hiding outputs or internals never changes local(A); hiding
	// inputs does, which is legal in the paper's definition but
	// unusual — such actions form their own fairness class.
	newlyLocal []Action
	parts      []Class
}

var _ Automaton = (*hidden)(nil)

// Hide moves the actions of hide from the external signature of a into
// its internal signature; executions are unchanged.
func Hide(a Automaton, hide Set) Automaton {
	sig := HideSignature(a.Sig(), hide)
	h := &hidden{inner: a, sig: sig}
	newlyLocal := sig.Local().Minus(a.Sig().Local())
	parts := a.Parts()
	if newlyLocal.Len() > 0 {
		h.newlyLocal = newlyLocal.Sorted()
		out := make([]Class, len(parts), len(parts)+1)
		copy(out, parts)
		parts = append(out, Class{Name: a.Name() + "/hidden-inputs", Actions: newlyLocal})
	}
	h.parts = parts
	return h
}

// HideOutputsExcept hides every output action of a except those in
// keep; a convenience for compositions where only part of the
// interface remains external (used when forming A₃ in §3.3.3).
func HideOutputsExcept(a Automaton, keep Set) Automaton {
	return Hide(a, a.Sig().Outputs().Minus(keep))
}

// Unwrap returns the automaton underneath Hide/Rename wrappers, or a
// itself.
func Unwrap(a Automaton) Automaton {
	_, under := wrappers(a)
	return under
}

// Name implements Automaton.
func (h *hidden) Name() string { return h.inner.Name() }

// Sig implements Automaton.
func (h *hidden) Sig() Signature { return h.sig }

// Start implements Automaton.
func (h *hidden) Start() []State { return h.inner.Start() }

// Next implements Automaton: hiding changes only the signature, so
// stepping — in sc too — is the inner automaton's.
func (h *hidden) Next(sc *Scratch, s State, a Action, yield func(State) bool) bool {
	return h.inner.Next(sc, s, a, yield)
}

// Enabled implements Automaton. Former input actions that became
// internal are enabled from every state (input-enabledness of the
// inner automaton) and so are always reported.
func (h *hidden) Enabled(s State) []Action {
	out := h.inner.Enabled(s)
	if len(h.newlyLocal) > 0 {
		out = append(append([]Action(nil), out...), h.newlyLocal...)
	}
	return out
}

// Parts implements Automaton.
func (h *hidden) Parts() []Class { return h.parts }
