package ioa

import "fmt"

// A Numbered automaton steps its actions by number. Action i is
// Actions()[i], and Actions() is acts(A) in sorted order, so numbers
// compare as the names do: stepping an increasing list of numbers steps
// the actions in exactly the order a sorted sweep by name does. The
// numbering is a function of the signature alone — two Numbered views
// of one automaton, or of automata with one signature, agree on it.
//
// Every automaton this package builds is Numbered, and so are the grid
// and explore's closed world; Number gives any other automaton an
// adapter. The hot loops — Walk, the composite's routes and memo rows,
// the possibilities-mapping check — resolve names to numbers once and
// then hash no action name per step.
type Numbered interface {
	Automaton
	// Actions returns acts(A) in sorted order: the name of each number.
	// Callers must not modify it.
	Actions() []Action
	// AppendEnabled appends the numbers of Enabled(s), in Enabled's
	// order, to dst and returns the extended slice.
	AppendEnabled(dst []int32, s State) []int32
	// NextNum is Next by number: it yields what Next(sc, s, Actions()[i],
	// yield) yields, in the same order, and returns what it returns.
	NextNum(sc *Scratch, s State, i int32, yield func(State) bool) bool
}

// Number returns a itself when it is Numbered, and otherwise an
// adapter whose numbers step a by name through one map lookup.
func Number(a Automaton) Numbered {
	if n, ok := a.(Numbered); ok {
		return n
	}
	return &adapter{Automaton: a, numbering: newNumbering(a.Sig().Acts())}
}

// numbering is an action table: the sorted actions and each one's
// number.
type numbering struct {
	acts  []Action
	index map[Action]int32
}

func newNumbering(acts Set) numbering {
	n := numbering{acts: acts.Sorted(), index: make(map[Action]int32, len(acts))}
	for i, a := range n.acts {
		n.index[a] = int32(i)
	}
	return n
}

// Actions implements Numbered.
func (n *numbering) Actions() []Action { return n.acts }

// number is a's number; it panics when a is not in the table, which
// would be a compilation error, not a step that does nothing.
func (n *numbering) number(a Action) int32 {
	i, ok := n.index[a]
	if !ok {
		panic(fmt.Sprintf("ioa: internal error: action %q is not in the table", a))
	}
	return i
}

// names returns the names of nums in order, or nil when there are none:
// the one allocation of a name-based Enabled.
func (n *numbering) names(nums []int32) []Action {
	if len(nums) == 0 {
		return nil
	}
	out := make([]Action, len(nums))
	for k, i := range nums {
		out[k] = n.acts[i]
	}
	return out
}

// adapter numbers an automaton that does not number itself.
type adapter struct {
	Automaton
	numbering
}

// AppendEnabled implements Numbered. A reported action outside acts(A)
// has no step and no number, and is dropped.
func (n *adapter) AppendEnabled(dst []int32, s State) []int32 {
	for _, a := range n.Enabled(s) {
		if i, ok := n.index[a]; ok {
			dst = append(dst, i)
		}
	}
	return dst
}

// NextNum implements Numbered.
func (n *adapter) NextNum(sc *Scratch, s State, i int32, yield func(State) bool) bool {
	return n.Next(sc, s, n.acts[i], yield)
}
