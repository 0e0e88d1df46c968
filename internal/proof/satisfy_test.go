package proof

import (
	"context"
	"testing"

	"repro/internal/explore"
	"repro/internal/figures"
	"repro/internal/ioa"
)

func TestUnfairSatisfiesBounded(t *testing.T) {
	// Fig23 A and B have the same external behaviors.
	ok, witness, err := UnfairSatisfiesBounded(figures.Fig23A(), figures.Fig23B(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("A must satisfy B unfairly; witness %v", ioa.TraceString(witness))
	}
	// Fig23 C does NOT unfairly satisfy D(2): α³ distinguishes.
	ok, witness, err = UnfairSatisfiesBounded(figures.Fig23C(), figures.Fig23D(2), 4)
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
	if _, _, err := UnfairSatisfiesBounded(figures.Fig23A(), figures.Fig23C(), 3); err == nil {
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
	f1, err := FairBehaviorsFinite(a1, 4)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := FairBehaviorsFinite(a2, 4)
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
	fa, err := FairBehaviorsFinite(figures.Fig23A(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if fa.Len() == 0 {
		t.Error("A has finite fair behaviors (α-runs ending with β disabled)")
	}
	fb, err := FairBehaviorsFinite(figures.Fig23B(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if fb.Len() != 0 {
		t.Errorf("B has no finite fair behaviors, got %d", fb.Len())
	}
	// This is the mechanical witness that A and B are fairly
	// inequivalent despite being unfairly equivalent (Figure 2.3).
}

func TestSatisfactionChain(t *testing.T) {
	a := figures.Fig23C()
	id := func(s ioa.State) []ioa.State { return []ioa.State{s} }
	h1 := &PossMapping{A: a, B: a, Map: id}
	h2 := &PossMapping{A: a, B: a, Map: id}
	if err := SatisfactionChainOpts(explore.Options{Limit: 100}, h1, h2); err != nil {
		t.Fatalf("chain of identities must verify: %v", err)
	}
	bad := &PossMapping{A: a, B: figures.Fig23D(2), Map: func(ioa.State) []ioa.State {
		return figures.Fig23D(2).Start()
	}}
	if err := SatisfactionChainOpts(explore.Options{Limit: 100}, h1, bad); err == nil {
		t.Error("broken link must be reported")
	}
}
