package ioa

import "slices"

// A Stepper is an optional successor-visitor fast path for Automaton
// implementations. VisitNext enumerates exactly the states Next(s, a)
// would return, in the same order, but hands them to yield one at a
// time instead of materializing a fresh slice per call — the
// difference matters in exhaustive exploration, where Next allocation
// per (state, action) pair dominates the profile on composed systems.
//
// Contract: VisitNext(s, a, yield) must invoke yield on the elements
// of Next(s, a) in order, stopping early (and returning false) as
// soon as yield returns false; it returns true when the enumeration
// ran to completion. Implementations must not retain yield.
type Stepper interface {
	VisitNext(s State, a Action, yield func(State) bool) bool
}

// VisitNext enumerates the successors of s via act, using the
// automaton's Stepper fast path when it has one and falling back to
// Next otherwise. It is the generic adapter explorers call so that
// plain Automaton implementations keep working unchanged.
func VisitNext(a Automaton, s State, act Action, yield func(State) bool) bool {
	if st, ok := a.(Stepper); ok {
		return st.VisitNext(s, act, yield)
	}
	for _, nxt := range a.Next(s, act) {
		if !yield(nxt) {
			return false
		}
	}
	return true
}

// A BorrowStepper is a Stepper that can also build its successors in a
// caller's Scratch instead of on the heap. VisitBorrowed enumerates
// exactly what VisitNext does, in the same order; the states it yields
// are borrowed — valid until sc is next Reset, Keep what is retained —
// and with a nil sc it is VisitNext. Compositions implement it, and the
// wrappers that step by delegating (Hide, Rename, explore.ClosedWorld)
// forward it.
type BorrowStepper interface {
	Stepper
	VisitBorrowed(sc *Scratch, s State, a Action, yield func(State) bool) bool
}

// VisitBorrowed enumerates the successors of s via act, borrowed in sc
// when the automaton offers the borrowed walk and through VisitNext —
// heap states, which Keep leaves alone — when it does not (Table, Prog,
// wrappers defined outside this package): correct, merely unaccelerated.
func VisitBorrowed(a Automaton, sc *Scratch, s State, act Action, yield func(State) bool) bool {
	if sc != nil {
		if b, ok := a.(BorrowStepper); ok {
			return b.VisitBorrowed(sc, s, act, yield)
		}
	}
	return VisitNext(a, s, act, yield)
}

// VisitNext implements Stepper for table automata: the stored
// successor row is walked in place, skipping the defensive copy Next
// makes.
func (t *Table) VisitNext(s State, a Action, yield func(State) bool) bool {
	row, ok := t.steps[s.Key()]
	if !ok {
		if t.sig.IsInput(a) {
			return yield(s)
		}
		return true
	}
	for _, nxt := range row[a] {
		if !yield(nxt) {
			return false
		}
	}
	return true
}

var _ Stepper = (*Table)(nil)

// VisitNext implements Stepper for precondition/effect automata. The
// transition function still materializes its successor list (that is
// its signature), so the win here is uniformity plus the input
// self-loop case, which yields the argument without allocating.
func (p *Prog) VisitNext(s State, a Action, yield func(State) bool) bool {
	t, ok := p.trans[a]
	if !ok {
		return true
	}
	next := t.next(s)
	if len(next) == 0 && t.kind == kindInput {
		return yield(s)
	}
	for _, nxt := range next {
		if !yield(nxt) {
			return false
		}
	}
	return true
}

var _ Stepper = (*Prog)(nil)

// VisitNext implements Stepper for compositions: the borrowed walk
// with no scratch, which allocates each successor on the heap.
func (c *Composite) VisitNext(s State, a Action, yield func(State) bool) bool {
	return c.VisitBorrowed(nil, s, a, yield)
}

// VisitBorrowed implements BorrowStepper, and is a composition's one
// successor enumerator (VisitNext is its nil-scratch case and Next
// collects that). Every leaf owning the action steps at once — on the
// arbiter systems most actions have two owners — and the others stay.
// An odometer over the owners' successor lists, first owner most
// significant, walks their cross product in the order stepping each
// nested composition and then the one over it would. A successor is a
// copy of the parent's tuple and of each nested tuple an owner sits in,
// owners' slots overwritten, in sc when there is one; an owner that
// cannot step, or sits in a malformed tuple, means no step at all.
func (c *Composite) VisitBorrowed(sc *Scratch, s State, a Action, yield func(State) bool) bool {
	r, ok := c.routes[a]
	if !ok {
		return true
	}
	// Arrays keep the walk on the stack for up to four nodes and owners.
	var fromStack, toStack [4]*TupleState
	from := resolve(r.nodes, s, fromStack[:0])
	if slices.Contains(from, nil) {
		return true
	}
	var choiceStack [4][]State
	var idxStack [4]int
	choices, idx := choiceStack[:0], idxStack[:0]
	for _, o := range r.owners {
		next := c.leafNext(r.id, o, from[o.at].parts[o.part])
		if len(next) == 0 {
			return true
		}
		choices, idx = append(choices, next), append(idx, 0)
	}
	to := append(toStack[:0], from...)
	for {
		for k, n := range r.nodes {
			to[k] = sc.tuple(from[k].parts)
			if n.parent >= 0 {
				to[n.parent].parts[n.part] = to[k]
			}
		}
		for k, o := range r.owners {
			to[o.at].parts[o.part] = choices[k][idx[k]]
		}
		if !yield(to[0]) {
			return false
		}
		k := len(r.owners) - 1
		for ; k >= 0; k-- {
			if idx[k]++; idx[k] < len(choices[k]) {
				break
			}
			idx[k] = 0
		}
		if k < 0 {
			return true
		}
	}
}

var _ BorrowStepper = (*Composite)(nil)

// VisitNext implements Stepper for hidden automata: hiding changes
// only the signature, so stepping delegates to the inner automaton.
func (h *hidden) VisitNext(s State, a Action, yield func(State) bool) bool {
	return h.VisitBorrowed(nil, s, a, yield)
}

// VisitBorrowed implements BorrowStepper; a nil sc makes it VisitNext.
func (h *hidden) VisitBorrowed(sc *Scratch, s State, a Action, yield func(State) bool) bool {
	return VisitBorrowed(h.inner, sc, s, a, yield)
}

var _ BorrowStepper = (*hidden)(nil)

// VisitNext implements Stepper for renamed automata: actions outside
// the renamed signature have no steps; everything else delegates
// through the inverse mapping.
func (r *Renamed) VisitNext(s State, a Action, yield func(State) bool) bool {
	return r.VisitBorrowed(nil, s, a, yield)
}

// VisitBorrowed implements BorrowStepper; a nil sc makes it VisitNext.
func (r *Renamed) VisitBorrowed(sc *Scratch, s State, a Action, yield func(State) bool) bool {
	ia, ok := r.inv[a]
	if !ok {
		return true
	}
	return VisitBorrowed(r.inner, sc, s, ia, yield)
}

var _ BorrowStepper = (*Renamed)(nil)
