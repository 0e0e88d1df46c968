package proof

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/explore"
	"repro/internal/figures"
	"repro/internal/ioa"
)

// The bounded behavior checks below are the executable Figure 2.3
// claims: exact behavior-set inclusion up to a depth, and the finite
// fair behaviors that, with fair lassos (explore.FindLasso), tell
// fairly inequivalent automata apart.

// unfairSatisfiesBounded reports whether every external behavior of a
// with at most depth steps is an external behavior of b with at most
// depth steps, returning a counterexample trace otherwise.
func unfairSatisfiesBounded(a, b ioa.Automaton, depth int) (bool, []ioa.Action, error) {
	if !a.Sig().External().Equal(b.Sig().External()) {
		return false, nil, fmt.Errorf("proof: external signatures differ")
	}
	ma, err := explore.New(explore.Options{Workers: 1}).Behaviors(context.Background(), a, depth)
	if err != nil {
		return false, nil, err
	}
	mb, err := explore.New(explore.Options{Workers: 1}).Behaviors(context.Background(), b, depth)
	if err != nil {
		return false, nil, err
	}
	for _, tr := range ma.Traces() {
		if !mb.Has(tr) {
			return false, tr, nil
		}
	}
	return true, nil, nil
}

// fairBehaviorsFinite computes the set of behaviors of finite fair
// executions of a with at most depth steps (executions ending in a
// state with no locally-controlled action enabled). Together with
// fair lassos (explore.FindLasso with fair=true) this characterizes
// the fair behavior of finite automata.
func fairBehaviorsFinite(a ioa.Automaton, depth int) (*ioa.SchedModule, error) {
	mod, err := explore.New(explore.Options{Workers: 1}).Execs(context.Background(), a, depth)
	if err != nil {
		return nil, err
	}
	ext := a.Sig().Ext()
	var traces [][]ioa.Action
	for _, x := range mod.Execs {
		if ioa.IsFairFinite(x) {
			traces = append(traces, ext.Project(x.Acts))
		}
	}
	return ioa.NewSchedModule(a.Sig().External(), traces)
}

func TestUnfairSatisfiesBounded(t *testing.T) {
	// Fig23 A and B have the same external behaviors.
	ok, witness, err := unfairSatisfiesBounded(figures.Fig23A(), figures.Fig23B(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("A must satisfy B unfairly; witness %v", ioa.TraceString(witness))
	}
	// Fig23 C does NOT unfairly satisfy D(2): α³ distinguishes.
	ok, witness, err = unfairSatisfiesBounded(figures.Fig23C(), figures.Fig23D(2), 4)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("C must not satisfy D(2): C allows unbounded α-prefixes")
	}
	if len(witness) < 3 {
		t.Errorf("expected an α-run witness, got %v", ioa.TraceString(witness))
	}
}

func TestUnfairSatisfiesRejectsSignatureMismatch(t *testing.T) {
	if _, _, err := unfairSatisfiesBounded(figures.Fig23A(), figures.Fig23C(), 3); err == nil {
		t.Error("differing external signatures must error")
	}
}

// TestLemma30OnIdentity: the identity mapping on an automaton
// satisfies the Lemma 30 hypothesis (partition containment +
// enabled-condition) trivially.
func TestLemma30OnIdentity(t *testing.T) {
	a := figures.Fig23C()
	h := &PossMapping{
		A:   a,
		B:   a,
		Map: func(s ioa.State) []ioa.State { return []ioa.State{s} },
	}
	if err := h.VerifyOpts(explore.Options{Limit: 100}); err != nil {
		t.Fatalf("identity mapping: %v", err)
	}
	if err := FairSatisfiesViaMappingOpts(h, explore.Options{Limit: 100}); err != nil {
		t.Fatalf("Lemma 30 hypothesis on identity: %v", err)
	}
}

// TestLemma30RejectsPartitionMismatch: if B has a class not contained
// in any class of A, the hypothesis fails.
func TestLemma30RejectsPartitionMismatch(t *testing.T) {
	a := figures.Fig23B() // single class {β}
	// B-side automaton with a class {α} — α is an input of A, so no
	// class of A contains it.
	sig := ioa.MustSignature(nil, []ioa.Action{figures.Alpha, figures.Beta}, nil)
	b := ioa.MustTable("Bbig", sig,
		[]ioa.State{ioa.KeyState("t0")},
		[]ioa.Step{
			{From: ioa.KeyState("t0"), Act: figures.Alpha, To: ioa.KeyState("t0")},
			{From: ioa.KeyState("t0"), Act: figures.Beta, To: ioa.KeyState("t0")},
		},
		[]ioa.Class{
			{Name: "alpha", Actions: ioa.NewSet(figures.Alpha)},
			{Name: "beta", Actions: ioa.NewSet(figures.Beta)},
		})
	h := &PossMapping{
		A:   a,
		B:   b,
		Map: func(ioa.State) []ioa.State { return b.Start() },
	}
	if err := FairSatisfiesViaMappingOpts(h, explore.Options{Limit: 100}); err == nil {
		t.Error("partition containment must fail")
	}
}

// TestLemma25PrimitiveFairImpliesUnfair: for primitive automata, fair
// equivalence implies unfair equivalence. We check the contrapositive
// flavor mechanically on Fig23 A and B: they are primitive, unfairly
// equivalent, but NOT fairly equivalent — so by Lemma 25 nothing is
// contradicted; and for two copies of the same primitive automaton
// fair equivalence (trivially) accompanies unfair equivalence.
func TestLemma25PrimitiveFairImpliesUnfair(t *testing.T) {
	a1, a2 := figures.Fig23A(), figures.Fig23A()
	if !ioa.IsPrimitive(a1) {
		t.Fatal("Fig23A must be primitive")
	}
	same, _, err := explore.New(explore.Options{Workers: 1}).SameBehaviors(context.Background(), a1, a2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Error("identical automata must be unfairly equivalent")
	}
	// Their finite fair behaviors agree too.
	f1, err := fairBehaviorsFinite(a1, 4)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fairBehaviorsFinite(a2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !f1.Equal(f2) {
		t.Error("identical automata must have identical finite fair behaviors")
	}
}

func TestFairBehaviorsFinite(t *testing.T) {
	// Fig23A: finite fair behaviors end in s1 (β disabled): any α-run
	// landing in s1. Fig23B: none (β always enabled).
	fa, err := fairBehaviorsFinite(figures.Fig23A(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if fa.Len() == 0 {
		t.Error("A has finite fair behaviors (α-runs ending with β disabled)")
	}
	fb, err := fairBehaviorsFinite(figures.Fig23B(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if fb.Len() != 0 {
		t.Errorf("B has no finite fair behaviors, got %d", fb.Len())
	}
	// This is the mechanical witness that A and B are fairly
	// inequivalent despite being unfairly equivalent (Figure 2.3).
}

// TestSatisfactionChain: Lemma 26(1)'s evidence that the last object
// of a chain satisfies the first is a verified possibilities mapping
// per adjacent pair, so a chain verifies iff each link does.
func TestSatisfactionChain(t *testing.T) {
	a := figures.Fig23C()
	id := func(s ioa.State) []ioa.State { return []ioa.State{s} }
	h1 := &PossMapping{A: a, B: a, Map: id}
	h2 := &PossMapping{A: a, B: a, Map: id}
	for _, h := range []*PossMapping{h1, h2} {
		if err := h.VerifyOpts(explore.Options{Limit: 100}); err != nil {
			t.Fatalf("chain of identities must verify: %v", err)
		}
	}
	bad := &PossMapping{A: a, B: figures.Fig23D(2), Map: func(ioa.State) []ioa.State {
		return figures.Fig23D(2).Start()
	}}
	if err := bad.VerifyOpts(explore.Options{Limit: 100}); err == nil {
		t.Error("broken link must be reported")
	}
}
