package proof

import (
	"context"
	"errors"
	"testing"

	"repro/internal/explore"
	"repro/internal/ioa"
)

// detTwoClass is a small deterministic automaton with two classes:
// "ping" toggles 0↔1; "pong" fires only from 1.
func detTwoClass(t *testing.T) *ioa.Table {
	t.Helper()
	sig := ioa.MustSignature([]ioa.Action{"in"}, []ioa.Action{"ping", "pong"}, nil)
	s := func(k string) ioa.State { return ioa.KeyState(k) }
	return ioa.MustTable("det2", sig,
		[]ioa.State{s("0")},
		[]ioa.Step{
			{From: s("0"), Act: "ping", To: s("1")},
			{From: s("1"), Act: "ping", To: s("0")},
			{From: s("1"), Act: "pong", To: s("1")},
			{From: s("0"), Act: "in", To: s("0")},
			{From: s("1"), Act: "in", To: s("0")},
		},
		[]ioa.Class{
			{Name: "P", Actions: ioa.NewSet(ioa.Action("ping"))},
			{Name: "Q", Actions: ioa.NewSet(ioa.Action("pong"))},
		})
}

// TestLemma22Decomposition: the composition of the primitive
// components of a deterministic automaton has the same external
// behaviors (bounded check) and the same fair lassos.
func TestLemma22Decomposition(t *testing.T) {
	a := detTwoClass(t)
	comps, composed, err := DecomposeDeterministic(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	for _, c := range comps {
		if !ioa.IsPrimitive(c) {
			t.Errorf("component %s not primitive", c.Name())
		}
		if err := ioa.Validate(c); err != nil {
			t.Errorf("component %s invalid: %v", c.Name(), err)
		}
	}
	if !composed.Sig().External().Equal(a.Sig().External()) {
		t.Fatalf("external signatures differ: %v vs %v",
			composed.Sig().External(), a.Sig().External())
	}
	ok, witness, err := explore.New(explore.Options{}).SameBehaviors(context.Background(), a, composed, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("behaviors differ; witness %v", ioa.TraceString(witness))
	}
	// Fair equivalence spot check: the all-"in" execution is fair for
	// both (ping enabled everywhere... it is: ping enabled from both
	// states, so an in-only cycle is NOT fair for either).
	inOnly := func(act ioa.Action) bool { return act == "in" }
	la, err := explore.New(explore.Options{Limit: 1000}).FindLasso(context.Background(), a, inOnly, true)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := explore.New(explore.Options{Limit: 1000}).FindLasso(context.Background(), composed, inOnly, true)
	if err != nil {
		t.Fatal(err)
	}
	if (la == nil) != (lc == nil) {
		t.Errorf("fair in-only lassos disagree: A=%v composed=%v", la != nil, lc != nil)
	}
}

// TestLemma22DeadState: a component driven by an input its original
// automaton could not perform enters the dead state and never acts
// again.
func TestLemma22DeadState(t *testing.T) {
	a := detTwoClass(t)
	// The "ping"-owning component sees "pong" as an input; from state
	// 0 the original automaton has no pong step, so the construction
	// routes that input to the dead state.
	comp0, err := PrimitiveComponent(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	next := ioa.Successors(comp0, ioa.KeyState("0"), "pong")
	if len(next) != 1 || next[0].Key() != deadKey {
		t.Fatalf("impossible input must lead to dead state, got %v", next)
	}
	// Dead state: inputs self-loop, no local actions.
	if got := ioa.Successors(comp0, next[0], "pong"); len(got) != 1 || got[0].Key() != deadKey {
		t.Error("dead state must absorb inputs")
	}
	if got := comp0.Enabled(next[0]); len(got) != 0 {
		t.Errorf("dead state enables %v", got)
	}
}

// TestLemma24Determinize: the determinized automaton is deterministic,
// carries one extra scheduler class, and preserves external behaviors
// (bounded).
func TestLemma24Determinize(t *testing.T) {
	// A nondeterministic automaton: "flip" may go 0→1 or 0→2; "win"
	// fires only from 1, "lose" only from 2.
	sig := ioa.MustSignature(nil, []ioa.Action{"flip", "win", "lose"}, nil)
	s := func(k string) ioa.State { return ioa.KeyState(k) }
	a := ioa.MustTable("nd", sig,
		[]ioa.State{s("0")},
		[]ioa.Step{
			{From: s("0"), Act: "flip", To: s("1")},
			{From: s("0"), Act: "flip", To: s("2")},
			{From: s("1"), Act: "win", To: s("1")},
			{From: s("2"), Act: "lose", To: s("2")},
		},
		[]ioa.Class{{Name: "only", Actions: ioa.NewSet(ioa.Action("flip"), ioa.Action("win"), ioa.Action("lose"))}})

	det, err := Determinize(a, a.States())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(det.Parts()); got != 2 {
		t.Fatalf("determinized classes = %d, want original + scheduler", got)
	}
	// The determinized state space is infinite (queues grow without
	// bound), so sample a bounded prefix of it for the determinism
	// check.
	states, err := explore.New(explore.Options{Limit: 800}).Reach(context.Background(), det)
	if err != nil && !errors.Is(err, explore.ErrLimit) {
		t.Fatal(err)
	}
	if !ioa.IsDeterministic(det, states) {
		t.Error("Lemma 24 result must be deterministic")
	}
	// External behaviors agree up to depth (sched actions are
	// internal).
	ma, err := explore.New(explore.Options{}).Behaviors(context.Background(), a, 3)
	if err != nil {
		t.Fatal(err)
	}
	md, err := explore.New(explore.Options{}).Behaviors(context.Background(), det, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ma.Traces() {
		if !md.Has(tr) {
			t.Errorf("behavior %v of A missing in determinization", ioa.TraceString(tr))
		}
	}
	for _, tr := range md.Traces() {
		if len(tr) <= 3 && !ma.Has(tr) {
			t.Errorf("behavior %v of determinization not a behavior of A", ioa.TraceString(tr))
		}
	}
}

// TestTheorem23: the full decomposition (determinize, then split into
// primitive automata and a scheduler) preserves bounded external
// behaviors of a nondeterministic automaton.
func TestTheorem23(t *testing.T) {
	a := detTwoClass(t) // works for nondeterministic too; reuse mixed classes
	comps, composed, err := Decompose(a, a.States())
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 3 { // P, Q, scheduler
		t.Fatalf("components = %d, want 3", len(comps))
	}
	for _, c := range comps {
		if !ioa.IsPrimitive(c) {
			t.Errorf("component %s not primitive", c.Name())
		}
	}
	if !composed.Sig().External().Equal(a.Sig().External()) {
		t.Fatalf("external signature changed: %v", composed.Sig().External())
	}
	ma, err := explore.New(explore.Options{}).Behaviors(context.Background(), a, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The decomposition needs extra internal (sched) steps; search
	// deeper on its side.
	md, err := explore.New(explore.Options{}).Behaviors(context.Background(), composed, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ma.Traces() {
		if !md.Has(tr) {
			t.Errorf("behavior %v lost by Theorem 23 construction", ioa.TraceString(tr))
		}
	}
	for _, tr := range md.Traces() {
		if len(tr) <= 3 && !ma.Has(tr) {
			t.Errorf("behavior %v invented by Theorem 23 construction", ioa.TraceString(tr))
		}
	}
}
