package ioa

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// A State is an automaton state. Implementations must be immutable
// once created; two states are considered equal iff their Keys are
// equal, so Key must be a canonical encoding of the state's content.
type State interface {
	// Key returns a canonical encoding of the state. It is used for
	// equality, hashing, and diagnostics. An implementation may compute
	// it lazily (TupleState does), but every call on one state returns
	// the same string.
	Key() string
}

// AppendState appends s's canonical encoding — the Key bytes — to dst
// and returns the extended slice: the one encoding the interned store,
// the spill runs and the cluster wire all hash and compare. A tuple's
// bytes are streamed part by part without building its key string.
func AppendState(dst []byte, s State) []byte {
	if t, ok := s.(*TupleState); ok {
		return t.appendKey(dst)
	}
	return append(dst, s.Key()...)
}

// KeyState is a trivial State implementation whose identity is a
// string. Useful for small hand-built automata.
type KeyState string

// Key implements State.
func (s KeyState) Key() string { return string(s) }

var _ State = KeyState("")

// JoinKeys combines component state keys into a single unambiguous
// composite key (each component is length-prefixed, so no separator
// collision is possible).
func JoinKeys(keys ...string) string {
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(strconv.Itoa(len(k)))
		b.WriteByte(':')
		b.WriteString(k)
	}
	return b.String()
}

// A Class is one equivalence class of part(A), the partition of an
// automaton's locally-controlled actions. Intuitively a class holds
// the locally-controlled actions of one system component (§2.1, §2.2).
type Class struct {
	// Name identifies the class, e.g. "arbiter/a1".
	Name string
	// Actions is the set of locally-controlled actions in the class.
	Actions Set
}

// Clone returns a deep copy of the class.
func (c Class) Clone() Class {
	return Class{Name: c.Name, Actions: c.Actions.Clone()}
}

// An Automaton is an input-output automaton (§2.1): a set of states
// with distinguished start states, an action signature, a transition
// relation in which every input action is enabled from every state,
// and a partition of the locally-controlled actions into fairness
// classes.
//
// The state set may be infinite; it is represented implicitly by the
// Next function, the one way to ask for steps(A). Implementations must
// be deterministic functions of their arguments (the nondeterminism of
// the model lives in Next yielding several successor states, never in
// randomness).
type Automaton interface {
	// Name identifies the automaton in diagnostics.
	Name() string

	// Sig returns the action signature sig(A).
	Sig() Signature

	// Start returns the start states start(A); it must be non-empty.
	Start() []State

	// Next hands yield every state s' with (s, a, s') ∈ steps(A), in
	// an order fixed by s and a, stopping early — and returning false —
	// as soon as yield does; it returns true when the enumeration ran
	// to completion. For an input action a it yields at least once from
	// every state (input-enabledness); for actions outside acts(A) it
	// yields nothing. It must not retain yield.
	//
	// A non-nil sc lets the automaton build its successors in the
	// caller's scratch memory: such a state is borrowed, valid until sc
	// is next Reset, and Keep returns one that outlives it. With a nil
	// sc every successor is on the heap. sc never changes which states
	// are yielded or in what order. Successors collects the nil case.
	Next(sc *Scratch, s State, a Action, yield func(State) bool) bool

	// Enabled returns the locally-controlled actions enabled from s,
	// i.e. those π ∈ local(sig(A)) with a step from s. Input actions
	// are never reported (they are enabled by definition).
	Enabled(s State) []Action

	// Parts returns part(A): the partition of local(sig(A)) into
	// classes. The returned slice must not be mutated by callers.
	Parts() []Class
}

// StepTo picks a single successor of s via a, or reports false if a is
// not enabled. When the transition is nondeterministic the choice is
// made by pick (an index into the successor list, reduced modulo its
// length); pass 0 for deterministic automata.
func StepTo(a Automaton, s State, act Action, pick int) (State, bool) {
	next := Successors(a, s, act)
	if len(next) == 0 {
		return nil, false
	}
	if pick < 0 {
		pick = -pick
	}
	return next[pick%len(next)], true
}

// EnabledClasses returns the indices of classes of part(A) that have
// at least one action enabled from s.
func EnabledClasses(a Automaton, s State) []int {
	enabled := NewSet(a.Enabled(s)...)
	var idx []int
	for i, c := range a.Parts() {
		for act := range c.Actions {
			if enabled.Has(act) {
				idx = append(idx, i)
				break
			}
		}
	}
	return idx
}

// ClassEnabled reports whether some action of class c is enabled from s.
func ClassEnabled(a Automaton, s State, c Class) bool {
	for _, act := range a.Enabled(s) {
		if c.Actions.Has(act) {
			return true
		}
	}
	return false
}

// EnabledIn returns the enabled locally-controlled actions of s that
// belong to class c, in sorted order.
func EnabledIn(a Automaton, s State, c Class) []Action {
	var out []Action
	for _, act := range a.Enabled(s) {
		if c.Actions.Has(act) {
			out = append(out, act)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CheckPartition validates that parts(A) is a partition of
// local(sig(A)): classes pairwise disjoint and their union equal to
// the locally-controlled actions.
func CheckPartition(a Automaton) error {
	local := a.Sig().Local()
	seen := make(Set)
	for _, c := range a.Parts() {
		// Sorted so a violation is reported deterministically when a
		// class has several offending actions.
		for _, act := range c.Actions.Sorted() {
			if !local.Has(act) {
				return fmt.Errorf("ioa: class %q contains non-local action %q of %s", c.Name, act, a.Name())
			}
			if seen.Has(act) {
				return fmt.Errorf("ioa: action %q appears in two classes of %s", act, a.Name())
			}
			seen.Add(act)
		}
	}
	if len(seen) != len(local) {
		missing := local.Minus(seen)
		return fmt.Errorf("ioa: local actions %v of %s not covered by any class", missing, a.Name())
	}
	return nil
}

// CheckInputEnabled verifies input-enabledness on the given states:
// every input action must have at least one transition from each.
// (For finite automata pass the full reachable state set; for infinite
// ones pass a sample.)
func CheckInputEnabled(a Automaton, states []State) error {
	inputs := a.Sig().Inputs().Sorted()
	for _, s := range states {
		for _, in := range inputs {
			if len(Successors(a, s, in)) == 0 {
				return fmt.Errorf("ioa: automaton %s: input %q not enabled from state %q",
					a.Name(), in, s.Key())
			}
		}
	}
	return nil
}

// Validate runs the structural checks that every automaton must
// satisfy: a valid signature partition, non-empty start set, a valid
// action partition, and input-enabledness on the start states.
func Validate(a Automaton) error {
	if err := a.Sig().validate(); err != nil {
		return fmt.Errorf("ioa: automaton %s: %w", a.Name(), err)
	}
	if len(a.Start()) == 0 {
		return fmt.Errorf("ioa: automaton %s has no start states", a.Name())
	}
	if err := CheckPartition(a); err != nil {
		return err
	}
	return CheckInputEnabled(a, a.Start())
}

// IsDeterministic reports whether the automaton is deterministic in
// the sense of §2.2.3 — one start state and at most one π-step from
// every state — over the supplied states (for finite automata, the
// reachable set).
func IsDeterministic(a Automaton, states []State) bool {
	if len(a.Start()) != 1 {
		return false
	}
	acts := a.Sig().Acts().Sorted()
	for _, s := range states {
		for _, act := range acts {
			if len(Successors(a, s, act)) > 1 {
				return false
			}
		}
	}
	return true
}

// IsPrimitive reports whether part(A) consists of a single class
// (§2.2.3: the automaton models an "atomic" system component).
func IsPrimitive(a Automaton) bool { return len(a.Parts()) == 1 }
