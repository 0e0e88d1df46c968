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
// A Walk steps by number (Numbered): the inputs are numbered once when
// it is built, each state's enabled numbers go into the Walk's own
// buffer, and it steps the merged list in increasing order, each action
// once (an Enabled that also reports inputs repeats them). Numbers
// order as names do, so successors appear in exactly the order an
// all-actions sweep by sorted name discovers them: the BFS visit order
// every explorer numbers states in, the external census's chunk order,
// the edge order of ltl's graphs and induct's CTI order. A Walk hashes
// no action name and allocates nothing per state, and is not safe for
// concurrent use: each goroutine owns one.
//
// Successors are borrowed. A Walk owns the Scratch its automaton builds
// them in — the one object that is already per goroutine and lives as
// long as the walk — and rewinds it on entry to Visit, so the state
// handed to yield is valid until the next Visit on this Walk; Keep what
// you retain. A successor that is encoded, found in a seen set and
// dropped — most are — then costs no allocation.
type Walk struct {
	// Act is the action being stepped and Num its number; yield
	// callbacks read them to label the transition that produced their
	// argument.
	Act Action
	Num int32
	// Enabled is how many locally-controlled actions the state of the
	// last Visit enabled; zero marks a deadlock.
	Enabled int

	a      Numbered
	acts   []Action
	inputs []int32
	buf    []int32
	sc     Scratch
}

// NewWalk builds the successor enumerator of a.
func NewWalk(a Automaton) *Walk {
	w := &Walk{a: Number(a)}
	w.acts = w.a.Actions()
	sig := a.Sig()
	for i, act := range w.acts {
		if sig.IsInput(act) {
			w.inputs = append(w.inputs, int32(i))
		}
	}
	return w
}

// Visit calls yield on every successor of s worth stepping, with Act
// and Num set to the producing action, and stops early (returning
// false) as soon as yield does.
func (w *Walk) Visit(s State, yield func(State) bool) bool {
	w.sc.Reset()
	w.buf = w.a.AppendEnabled(w.buf[:0], s)
	w.Enabled = len(w.buf)
	nums := w.buf
	if len(w.inputs) > 0 || !increasing(nums) {
		w.buf = append(w.buf, w.inputs...)
		slices.Sort(w.buf)
		nums = slices.Compact(w.buf)
	}
	for _, i := range nums {
		w.Act, w.Num = w.acts[i], i
		if !w.a.NextNum(&w.sc, s, i, yield) {
			return false
		}
	}
	return true
}

// increasing reports whether nums is strictly increasing, so that Visit
// can step it as it is — a Prog's, a grid's and a table's are — without
// sorting.
func increasing(nums []int32) bool {
	for i := 1; i < len(nums); i++ {
		if nums[i-1] >= nums[i] {
			return false
		}
	}
	return true
}
