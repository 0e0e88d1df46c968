package ioa_test

// Property tests of the Chapter 2 algebra (Corollary 8, Lemmas 5–14,
// 19) on randomized finite automata. These live in an external test
// package so they can drive the explore enumerators against the core
// operators.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/testseed"
)

// randAutomaton builds a small random table automaton over the given
// action sets. Every output/internal action gets its own class.
func randAutomaton(rng *rand.Rand, name string, in, out, internal []ioa.Action) *ioa.Table {
	sig := ioa.MustSignature(in, out, internal)
	nStates := 2 + rng.Intn(3)
	states := make([]ioa.State, nStates)
	for i := range states {
		states[i] = ioa.KeyState(fmt.Sprintf("%s%d", name, i))
	}
	var steps []ioa.Step
	all := append(append(append([]ioa.Action(nil), in...), out...), internal...)
	for _, act := range all {
		// Each action gets 1-3 random transitions.
		k := 1 + rng.Intn(3)
		for j := 0; j < k; j++ {
			steps = append(steps, ioa.Step{
				From: states[rng.Intn(nStates)],
				Act:  act,
				To:   states[rng.Intn(nStates)],
			})
		}
	}
	var classes []ioa.Class
	for _, act := range append(append([]ioa.Action(nil), out...), internal...) {
		classes = append(classes, ioa.Class{Name: name + "-" + string(act), Actions: ioa.NewSet(act)})
	}
	return ioa.MustTable(name, sig, states[:1], steps, classes)
}

// TestLemma5ExecsOfCompositionProject: every bounded execution of a
// random composition projects to executions of the components
// (Lemma 1/5), and its schedule's projections are schedules of the
// components (Lemma 6).
func TestLemma5ExecsOfCompositionProject(t *testing.T) {
	base := testseed.Base(t)
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(base + seed))
		a := randAutomaton(rng, "A", []ioa.Action{"y"}, []ioa.Action{"x"}, []ioa.Action{"h"})
		b := randAutomaton(rng, "B", []ioa.Action{"x"}, []ioa.Action{"y"}, nil)
		c, err := ioa.Compose("AB", a, b)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := explore.New(explore.Options{}).Execs(context.Background(), c, 4)
		if err != nil {
			t.Fatal(err)
		}
		schedsA, err := explore.New(explore.Options{}).Schedules(context.Background(), a, 4)
		if err != nil {
			t.Fatal(err)
		}
		schedsB, err := explore.New(explore.Options{}).Schedules(context.Background(), b, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range mod.Execs {
			for i, comp := range []ioa.Automaton{a, b} {
				proj, err := c.ProjectExecution(x, i)
				if err != nil {
					t.Fatal(err)
				}
				if err := proj.Validate(true); err != nil {
					t.Fatalf("seed %d: projection %d invalid: %v", seed, i, err)
				}
				scheds := schedsA
				if i == 1 {
					scheds = schedsB
				}
				if !scheds.Has(proj.Schedule()) {
					t.Fatalf("seed %d: projected schedule %v not a schedule of %s",
						seed, ioa.TraceString(proj.Schedule()), comp.Name())
				}
			}
		}
	}
}

// TestLemma6SchedsCommute: Scheds(∏Aᵢ) = ∏Scheds(Aᵢ) on bounded
// enumerations for random non-interacting automata (disjoint
// alphabets make the bounded composition enumeration exact).
func TestLemma6SchedsCommute(t *testing.T) {
	const depth = 3
	base := testseed.Base(t)
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(base + seed))
		a := randAutomaton(rng, "A", nil, []ioa.Action{"x"}, nil)
		b := randAutomaton(rng, "B", nil, []ioa.Action{"y"}, nil)
		c, err := ioa.Compose("AB", a, b)
		if err != nil {
			t.Fatal(err)
		}
		lhs, err := explore.New(explore.Options{}).Schedules(context.Background(), c, depth)
		if err != nil {
			t.Fatal(err)
		}
		sa, err := explore.New(explore.Options{}).Schedules(context.Background(), a, depth)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := explore.New(explore.Options{}).Schedules(context.Background(), b, depth)
		if err != nil {
			t.Fatal(err)
		}
		rhs, err := ioa.ComposeSchedModules(depth, sa, sb)
		if err != nil {
			t.Fatal(err)
		}
		if !lhs.Equal(rhs) {
			t.Fatalf("seed %d: Scheds(A·B) ≠ Scheds(A)·Scheds(B)", seed)
		}
	}
}

// TestLemma7ExternalCommute: External(∏Sᵢ) = ∏External(Sᵢ) on the
// same bounded enumerations, with internal actions present.
func TestLemma7ExternalCommute(t *testing.T) {
	const depth = 3
	base := testseed.Base(t)
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(base + seed))
		a := randAutomaton(rng, "A", nil, []ioa.Action{"x"}, []ioa.Action{"ha"})
		b := randAutomaton(rng, "B", nil, []ioa.Action{"y"}, []ioa.Action{"hb"})
		c, err := ioa.Compose("AB", a, b)
		if err != nil {
			t.Fatal(err)
		}
		// LHS: behaviors of the composition.
		lhs, err := explore.New(explore.Options{}).Behaviors(context.Background(), c, depth)
		if err != nil {
			t.Fatal(err)
		}
		// RHS: compose the components' behaviors.
		ba, err := explore.New(explore.Options{}).Behaviors(context.Background(), a, depth)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := explore.New(explore.Options{}).Behaviors(context.Background(), b, depth)
		if err != nil {
			t.Fatal(err)
		}
		rhs, err := ioa.ComposeSchedModules(depth, ba, bb)
		if err != nil {
			t.Fatal(err)
		}
		// Depth caveat: an execution of depth k yields an external
		// trace of length ≤ k, so LHS ⊆ RHS always; RHS traces of
		// length ≤ depth that used few internal steps must appear in
		// LHS computed with a deeper internal budget.
		deep, err := explore.New(explore.Options{}).Behaviors(context.Background(), c, 2*depth)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range lhs.Traces() {
			if !rhs.Has(tr) {
				t.Fatalf("seed %d: behavior %v of A·B missing from product", seed, ioa.TraceString(tr))
			}
		}
		for _, tr := range rhs.Traces() {
			if !deep.Has(tr) {
				t.Fatalf("seed %d: product behavior %v not exhibited by A·B", seed, ioa.TraceString(tr))
			}
		}
	}
}

// TestLemma12HideCommutesWithExecs: hiding changes no executions, only
// signatures: Execs(Hide(A)) and Execs(A) coincide stepwise, and
// Behaviors(Hide(A)) equals Behaviors(A) projected.
func TestLemma12HideCommutesWithExecs(t *testing.T) {
	base := testseed.Base(t)
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(base + seed))
		a := randAutomaton(rng, "A", []ioa.Action{"i"}, []ioa.Action{"x", "z"}, nil)
		h := ioa.Hide(a, ioa.NewSet("z"))
		sa, err := explore.New(explore.Options{}).Schedules(context.Background(), a, 3)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := explore.New(explore.Options{}).Schedules(context.Background(), h, 3)
		if err != nil {
			t.Fatal(err)
		}
		// Hiding leaves the schedule SET untouched (only the signature
		// changes), so compare trace sets directly.
		if sa.Len() != sh.Len() {
			t.Fatalf("seed %d: schedule sets differ under hiding: %d vs %d", seed, sa.Len(), sh.Len())
		}
		for _, tr := range sa.Traces() {
			if !sh.Has(tr) {
				t.Fatalf("seed %d: schedule %v lost by hiding", seed, ioa.TraceString(tr))
			}
		}
		// Behaviors: hide(z) behaviors = project out z.
		ba, err := explore.New(explore.Options{}).Behaviors(context.Background(), a, 3)
		if err != nil {
			t.Fatal(err)
		}
		bh, err := explore.New(explore.Options{}).Behaviors(context.Background(), h, 3)
		if err != nil {
			t.Fatal(err)
		}
		keep := h.Sig().Ext()
		for _, tr := range ba.Traces() {
			if !bh.Has(keep.Project(tr)) {
				t.Fatalf("seed %d: projected behavior missing after hide", seed)
			}
		}
	}
}

// TestLemma14HideComposeCommute: Hide_∪Σᵢ(∏Oᵢ) = ∏Hide_Σᵢ(Oᵢ) when
// each Σᵢ is local to its component.
func TestLemma14HideComposeCommute(t *testing.T) {
	base := testseed.Base(t)
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(base + seed))
		a := randAutomaton(rng, "A", nil, []ioa.Action{"x", "xz"}, nil)
		b := randAutomaton(rng, "B", nil, []ioa.Action{"y", "yz"}, nil)
		lhsInner, err := ioa.Compose("AB", a, b)
		if err != nil {
			t.Fatal(err)
		}
		lhs := ioa.Hide(lhsInner, ioa.NewSet("xz", "yz"))
		rhs, err := ioa.Compose("AB2", ioa.Hide(a, ioa.NewSet("xz")), ioa.Hide(b, ioa.NewSet("yz")))
		if err != nil {
			t.Fatal(err)
		}
		if !lhs.Sig().Equal(rhs.Sig()) {
			t.Fatalf("seed %d: Lemma 14 signatures differ:\n%v\n%v", seed, lhs.Sig(), rhs.Sig())
		}
		sl, err := explore.New(explore.Options{}).Schedules(context.Background(), lhs, 3)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := explore.New(explore.Options{}).Schedules(context.Background(), rhs, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !sl.Equal(sr) {
			t.Fatalf("seed %d: Lemma 14 schedules differ", seed)
		}
	}
}

// TestLemma19FairComposition: a composite execution is fair iff its
// projections are fair — checked on finite fair executions of random
// quiescing systems (finite fairness: nothing locally controlled is
// enabled at the end).
func TestLemma19FairComposition(t *testing.T) {
	// Deterministic quiescing components: each fires its action a
	// bounded number of times.
	mk := func(name string, act ioa.Action, k int) *ioa.Table {
		sig := ioa.MustSignature(nil, []ioa.Action{act}, nil)
		var steps []ioa.Step
		states := make([]ioa.State, k+1)
		for i := range states {
			states[i] = ioa.KeyState(fmt.Sprintf("%s%d", name, i))
		}
		for i := 0; i < k; i++ {
			steps = append(steps, ioa.Step{From: states[i], Act: act, To: states[i+1]})
		}
		return ioa.MustTable(name, sig, states[:1], steps,
			[]ioa.Class{{Name: name, Actions: ioa.NewSet(act)}})
	}
	a := mk("A", "x", 2)
	b := mk("B", "y", 3)
	c, err := ioa.Compose("AB", a, b)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := explore.New(explore.Options{}).Execs(context.Background(), c, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range mod.Execs {
		pa, err := c.ProjectExecution(x, 0)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := c.ProjectExecution(x, 1)
		if err != nil {
			t.Fatal(err)
		}
		compFair := ioa.IsFairFinite(x)
		partsFair := ioa.IsFairFinite(pa) && ioa.IsFairFinite(pb)
		if compFair != partsFair {
			t.Fatalf("Lemma 19 violated on %s: composite fair=%t, components fair=%t",
				ioa.TraceString(x.Acts), compFair, partsFair)
		}
	}
}
