// Package ioa implements the input-output automaton model of Lynch and
// Tuttle ("Hierarchical Correctness Proofs for Distributed Algorithms",
// PODC 1987 / MIT-LCS-TR-387).
//
// An input-output automaton is a (possibly infinite-state) labeled
// transition system whose actions are partitioned into input, output,
// and internal actions. Input actions are enabled from every state
// (the automaton is "input-enabled"); output and internal actions are
// locally controlled and are further partitioned into fairness classes,
// one per system component being modeled. The package provides the
// operations of the paper: composition, action hiding, action renaming,
// executions and schedules, execution and schedule modules, and fair
// computation.
//
// An automaton's transition relation steps(A) is asked for one way:
// Automaton.Next(sc, s, a, yield) hands each successor to a visitor,
// built in the caller's Scratch when sc is non-nil (borrowed until the
// scratch is reset; Keep retains one) and on the heap when it is nil.
// Successors collects the heap case for callers that want a slice, and
// a Walk steps one state by every action worth stepping — Enabled(s)
// and the inputs — which is how the explorers, induction and the
// lasso graph enumerate successors.
package ioa

import (
	"fmt"
	"sort"
	"strings"
)

// An Action is the name of an automaton action. Parameterized action
// families (for example request(u1), request(u2), ...) are represented
// by distinct Action values produced with Act.
type Action string

// Act builds a parameterized action name, for example
// Act("request", "u1") == Action("request(u1)").
func Act(base string, params ...string) Action {
	if len(params) == 0 {
		return Action(base)
	}
	return Action(base + "(" + strings.Join(params, ",") + ")")
}

// Base returns the action's base name, stripping any parameter list.
func (a Action) Base() string {
	s := string(a)
	if i := strings.IndexByte(s, '('); i >= 0 {
		return s[:i]
	}
	return s
}

// Params returns the action's parameters, or nil if it has none.
func (a Action) Params() []string {
	s := string(a)
	i := strings.IndexByte(s, '(')
	if i < 0 || !strings.HasSuffix(s, ")") {
		return nil
	}
	inner := s[i+1 : len(s)-1]
	if inner == "" {
		return nil
	}
	return strings.Split(inner, ",")
}

// String implements fmt.Stringer.
func (a Action) String() string { return string(a) }

// A Set is a finite set of actions.
type Set map[Action]struct{}

// NewSet builds a set from the given actions.
func NewSet(actions ...Action) Set {
	s := make(Set, len(actions))
	for _, a := range actions {
		s[a] = struct{}{}
	}
	return s
}

// Has reports whether a is in the set.
func (s Set) Has(a Action) bool {
	_, ok := s[a]
	return ok
}

// Add inserts a into the set.
func (s Set) Add(a Action) { s[a] = struct{}{} }

// Len returns the number of actions in the set.
func (s Set) Len() int { return len(s) }

// Clone returns a copy of the set.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	for a := range s {
		c[a] = struct{}{}
	}
	return c
}

// Union returns a new set containing the actions of s and t.
func (s Set) Union(t Set) Set {
	u := s.Clone()
	for a := range t {
		u[a] = struct{}{}
	}
	return u
}

// Intersect returns a new set containing the actions in both s and t.
func (s Set) Intersect(t Set) Set {
	u := make(Set)
	for a := range s {
		if t.Has(a) {
			u[a] = struct{}{}
		}
	}
	return u
}

// Minus returns a new set containing the actions of s not in t.
func (s Set) Minus(t Set) Set {
	u := make(Set)
	for a := range s {
		if !t.Has(a) {
			u[a] = struct{}{}
		}
	}
	return u
}

// Disjoint reports whether s and t share no action.
func (s Set) Disjoint(t Set) bool {
	small, large := s, t
	if len(t) < len(s) {
		small, large = t, s
	}
	for a := range small {
		if large.Has(a) {
			return false
		}
	}
	return true
}

// Sorted returns the actions of the set in lexicographic order.
func (s Set) Sorted() []Action {
	out := make([]Action, 0, len(s))
	for a := range s {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String implements fmt.Stringer; actions are listed sorted.
func (s Set) String() string {
	parts := make([]string, 0, len(s))
	for _, a := range s.Sorted() {
		parts = append(parts, string(a))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Filter returns the subset of s whose actions satisfy keep.
func (s Set) Filter(keep func(Action) bool) Set {
	u := make(Set)
	for a := range s {
		if keep(a) {
			u[a] = struct{}{}
		}
	}
	return u
}

// Project returns the subsequence of seq consisting of actions in s
// (the paper's y|Π operation on schedules).
func (s Set) Project(seq []Action) []Action {
	var out []Action
	for _, a := range seq {
		if s.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// TraceString renders an action sequence compactly, for diagnostics
// and for use as a map key in behavior-set computations.
func TraceString(seq []Action) string {
	if len(seq) == 0 {
		return "ε"
	}
	var b strings.Builder
	for i, a := range seq {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(string(a))
	}
	return b.String()
}

// dupErr is a helper for reporting an action appearing where it must not.
func dupErr(a Action, where string) error {
	return fmt.Errorf("action %q %s", a, where)
}
