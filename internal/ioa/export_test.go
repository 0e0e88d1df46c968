package ioa

// Wrapped returns the automaton a Hide or a Rename wraps, and nil for
// anything else: what the definitional reference of the external tests
// recurses into.
func Wrapped(a Automaton) Automaton {
	switch w := a.(type) {
	case *hidden:
		return w.inner
	case *Renamed:
		return w.inner
	}
	return nil
}
