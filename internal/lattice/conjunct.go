// Package lattice organizes safety proofs as conjunct lattices: an
// inductive invariant is rarely the bare safety property but a
// conjunction Inv == TypeOK ∧ I1 ∧ … of named lemmas, each a state
// predicate, strengthened one conjunct at a time until the whole
// becomes closed under transitions. The induct engine walks this
// sub-lattice of the predicate lattice: a counterexample-to-induction
// names the violated conjunct, and the strengthening loop conjoins the
// library lemma that refutes the CTI's predecessor. (Liveness is not
// organized here: proof.CheckLeadsTo decides each S ↝ T on the
// reachable graph.)
package lattice

import (
	"fmt"
	"strings"

	"repro/internal/ioa"
)

// A Lemma is one named conjunct of a candidate invariant.
type Lemma struct {
	// Name identifies the conjunct in CTIs, obligation accounting, and
	// certificates.
	Name string
	// Pred is the state predicate. It must be pure: no mutation of the
	// state argument and no dependence on map order, time, or
	// randomness (the invpure analyzer enforces this).
	Pred func(ioa.State) bool
	// Reads optionally declares the digit positions of the enumerated
	// domain (domain.Product cardinalities, domain.Tuple parts) that
	// Pred depends on; nil declares nothing. The induct engine uses a
	// declaration to reject whole subtrees of the domain walk before
	// their states are built, and checks it where it could cost a
	// candidate (domain.Pruner). A lemma with Reads belongs to the
	// domain whose layout the positions name.
	Reads []int
}

// L builds a lemma.
func L(name string, pred func(ioa.State) bool) Lemma {
	return Lemma{Name: name, Pred: pred}
}

// A Conjunction is an ordered conjunction of lemmas — the candidate
// inductive invariant. The zero value is the empty conjunction (true
// everywhere). Conjunctions are immutable; With derives extensions.
type Conjunction struct {
	name   string
	lemmas []Lemma
}

// Conj builds a named conjunction of lemmas.
func Conj(name string, lemmas ...Lemma) *Conjunction {
	return &Conjunction{name: name, lemmas: append([]Lemma(nil), lemmas...)}
}

// Name returns the conjunction's name.
func (c *Conjunction) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Lemmas returns the conjuncts in order, copied.
func (c *Conjunction) Lemmas() []Lemma {
	if c == nil {
		return nil
	}
	return append([]Lemma(nil), c.lemmas...)
}

// Len returns the conjunct count.
func (c *Conjunction) Len() int {
	if c == nil {
		return 0
	}
	return len(c.lemmas)
}

// Holds reports whether every conjunct holds at s.
func (c *Conjunction) Holds(s ioa.State) bool {
	_, ok := c.FirstViolated(s)
	return !ok
}

// FirstViolated returns the first conjunct (in conjunction order)
// violated at s, if any. Evaluation order is the strengthening order,
// so the reported conjunct is the weakest-known failing obligation.
func (c *Conjunction) FirstViolated(s ioa.State) (Lemma, bool) {
	if c == nil {
		return Lemma{}, false
	}
	for _, l := range c.lemmas {
		if !l.Pred(s) {
			return l, true
		}
	}
	return Lemma{}, false
}

// Has reports whether a conjunct with the given name is present.
func (c *Conjunction) Has(name string) bool {
	if c == nil {
		return false
	}
	for _, l := range c.lemmas {
		if l.Name == name {
			return true
		}
	}
	return false
}

// With returns the conjunction extended by lemma (copy-on-write; the
// receiver is unchanged).
func (c *Conjunction) With(lemma Lemma) *Conjunction {
	out := &Conjunction{}
	if c != nil {
		out.name = c.name
		out.lemmas = append(out.lemmas, c.lemmas...)
	}
	out.lemmas = append(out.lemmas, lemma)
	return out
}

// String renders the conjunction TLAPS-style:
// "Inv == TypeOK ∧ I1 ∧ I2".
func (c *Conjunction) String() string {
	name := c.Name()
	if name == "" {
		name = "Inv"
	}
	if c.Len() == 0 {
		return fmt.Sprintf("%s == TRUE", name)
	}
	parts := make([]string, len(c.lemmas))
	for i, l := range c.lemmas {
		parts[i] = l.Name
	}
	return fmt.Sprintf("%s == %s", name, strings.Join(parts, " ∧ "))
}
