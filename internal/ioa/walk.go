package ioa

import "slices"

// Successors collects Next(nil, s, act): the successors of s via act,
// on the heap, in the automaton's order; nil when there are none.
func Successors(a Automaton, s State, act Action) []State {
	var out []State
	a.Next(nil, s, act, func(nxt State) bool {
		out = append(out, nxt)
		return true
	})
	return out
}

// VisitNext is Next with no scratch: every successor it yields is on
// the heap.
func VisitNext(a Automaton, s State, act Action, yield func(State) bool) bool {
	return a.Next(nil, s, act, yield)
}

// A Walk enumerates one state's successors, and is the one place that
// decides which actions are worth stepping: Enabled(s) merged with the
// input actions. For I/O automata this loses nothing — inputs are
// enabled in every state (input-enabledness, §2.1) and a
// locally-controlled action outside Enabled(s) has no step — while
// |acts(A)| − |enabled(s)| transition probes are skipped.
//
// A sorted Walk steps the merged list in sorted order, each action once
// (an Enabled that also reports inputs repeats them), so successors
// appear in exactly the order an all-actions sweep discovers them: the
// sequential explorer's visit-order pin, the external census's chunk
// order, the edge order of ltl's graphs and induct's CTI order. An
// unsorted Walk steps Enabled(s) then the inputs with no copy and no
// sort, for the level-synchronized loops whose merge sorts the
// candidates anyway; a repeated action there only finds every
// successor again. A Walk allocates nothing per state and is not safe
// for concurrent use: each goroutine owns one.
//
// Successors are borrowed. A Walk owns the Scratch its automaton builds
// them in — the one object that is already per goroutine and lives as
// long as the walk — and rewinds it on entry to Visit, so the state
// handed to yield is valid until the next Visit on this Walk; Keep what
// you retain. A successor that is encoded, found in a seen set and
// dropped — most are — then costs no allocation.
type Walk struct {
	// Act is the action being stepped; yield callbacks read it to label
	// the transition that produced their argument.
	Act Action
	// Enabled is how many locally-controlled actions the state of the
	// last Visit enabled; zero marks a deadlock.
	Enabled int

	a      Automaton
	inputs []Action
	sorted bool
	buf    []Action
	sc     Scratch
}

// NewWalk builds the successor enumerator of a.
func NewWalk(a Automaton, sorted bool) *Walk {
	return &Walk{a: a, inputs: a.Sig().Inputs().Sorted(), sorted: sorted}
}

// Visit calls yield on every successor of s worth stepping, with Act
// set to the producing action, and stops early (returning false) as
// soon as yield does.
func (w *Walk) Visit(s State, yield func(State) bool) bool {
	w.sc.Reset()
	enabled := w.a.Enabled(s)
	w.Enabled = len(enabled)
	if !w.sorted {
		return w.walk(s, enabled, yield) && w.walk(s, w.inputs, yield)
	}
	// Copy before sorting: the memo layer may hand out a shared cached
	// Enabled slice.
	w.buf = append(append(w.buf[:0], enabled...), w.inputs...)
	slices.Sort(w.buf)
	w.buf = slices.Compact(w.buf)
	return w.walk(s, w.buf, yield)
}

// walk steps s by each of acts in order.
func (w *Walk) walk(s State, acts []Action, yield func(State) bool) bool {
	for _, act := range acts {
		w.Act = act
		if !w.a.Next(&w.sc, s, act, yield) {
			return false
		}
	}
	return true
}
