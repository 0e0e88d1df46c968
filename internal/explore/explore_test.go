package explore

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/figures"
	"repro/internal/ioa"
)

func TestReachPingPong(t *testing.T) {
	c := figures.Fig21()
	states, err := New(Options{Workers: 1, Limit: 100}).Reach(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	// The ping-pong composition visits exactly (a0,b0) and (a1,b1).
	if len(states) != 2 {
		t.Fatalf("reachable = %d, want 2", len(states))
	}
}

func TestReachLimit(t *testing.T) {
	// Unbounded counter exceeds any limit.
	d := ioa.NewDef("unbounded")
	d.Start(ioa.KeyState("0"))
	d.Output("grow", "c",
		func(ioa.State) bool { return true },
		func(s ioa.State) ioa.State { return ioa.KeyState(s.Key() + "x") })
	a := d.MustBuild()
	_, err := New(Options{Workers: 1, Limit: 10}).Reach(context.Background(), a)
	if !errors.Is(err, ErrLimit) {
		t.Errorf("want ErrLimit, got %v", err)
	}
}

func TestCheckInvariantWitness(t *testing.T) {
	c := figures.Fig21()
	// A deliberately false invariant: "B never reaches b1".
	v, err := New(Options{Workers: 1, Limit: 100}).CheckInvariant(context.Background(), c, func(s ioa.State) bool {
		ts := s.(*ioa.TupleState)
		return ts.At(1).Key() != "b1"
	})
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("expected a violation")
	}
	if err := v.Trace.Validate(true); err != nil {
		t.Errorf("witness trace invalid: %v", err)
	}
	if v.Trace.Last().Key() != v.State.Key() {
		t.Error("witness trace must end at the violating state")
	}
	// A true invariant: components stay in lock step.
	v, err = New(Options{Workers: 1, Limit: 100}).CheckInvariant(context.Background(), c, func(s ioa.State) bool {
		ts := s.(*ioa.TupleState)
		return (ts.At(0).Key() == "a0") == (ts.At(1).Key() == "b0")
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Errorf("unexpected violation at %v", v.State.Key())
	}
}

func TestBehaviorsPingPong(t *testing.T) {
	c := figures.Fig21()
	m, err := New(Options{Workers: 1}).Behaviors(context.Background(), c, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range [][]ioa.Action{
		nil,
		{figures.Alpha},
		{figures.Alpha, figures.Beta},
		{figures.Alpha, figures.Beta, figures.Alpha},
	} {
		if !m.Has(want) {
			t.Errorf("behavior %v missing", ioa.TraceString(want))
		}
	}
	for _, no := range [][]ioa.Action{
		{figures.Beta},
		{figures.Alpha, figures.Alpha},
	} {
		if m.Has(no) {
			t.Errorf("behavior %v must be absent (outputs alternate)", ioa.TraceString(no))
		}
	}
}

func TestBehaviorsHidesInternals(t *testing.T) {
	c := ioa.Hide(figures.Fig21(), ioa.NewSet(figures.Beta))
	m, err := New(Options{Workers: 1}).Behaviors(context.Background(), c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Has([]ioa.Action{figures.Alpha, figures.Alpha}) {
		t.Error("after hiding β, αα must be an external behavior")
	}
	if m.Has([]ioa.Action{figures.Beta}) {
		t.Error("hidden action must not appear in behaviors")
	}
}

func TestSchedulesIncludesInternals(t *testing.T) {
	c := ioa.Hide(figures.Fig21(), ioa.NewSet(figures.Beta))
	m, err := New(Options{Workers: 1}).Schedules(context.Background(), c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Has([]ioa.Action{figures.Alpha, figures.Beta}) {
		t.Error("schedules must include internal actions")
	}
}

func TestExecsEnumeration(t *testing.T) {
	c := figures.Fig21()
	mod, err := New(Options{Workers: 1}).Execs(context.Background(), c, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Executions of length 0..3 along the single path: 4 executions.
	if len(mod.Execs) != 4 {
		t.Fatalf("Execs = %d, want 4", len(mod.Execs))
	}
	for _, x := range mod.Execs {
		if err := x.Validate(true); err != nil {
			t.Errorf("enumerated execution invalid: %v", err)
		}
	}
}

// TestFigure23FairVsUnfair reproduces Figure 2.3.
func TestFigure23FairVsUnfair(t *testing.T) {
	a, b := figures.Fig23A(), figures.Fig23B()
	cAut, dAut := figures.Fig23C(), figures.Fig23D(6)

	t.Run("A,B unfairly equivalent", func(t *testing.T) {
		same, witness, err := New(Options{Workers: 1}).SameBehaviors(context.Background(), a, b, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !same {
			t.Fatalf("A and B should have the same behaviors; witness %v", ioa.TraceString(witness))
		}
	})

	t.Run("A,B fairly inequivalent: α^ω fair only for A", func(t *testing.T) {
		alphaOnly := func(act ioa.Action) bool { return act == figures.Alpha }
		lasso, err := New(Options{Workers: 1, Limit: 100}).FindLasso(context.Background(), a, alphaOnly, true)
		if err != nil {
			t.Fatal(err)
		}
		if lasso == nil {
			t.Error("A must have a fair all-α lasso (α^ω ∈ fbeh(A))")
		}
		lasso, err = New(Options{Workers: 1, Limit: 100}).FindLasso(context.Background(), b, alphaOnly, true)
		if err != nil {
			t.Fatal(err)
		}
		if lasso != nil {
			t.Error("B must have no fair all-α lasso (β is always enabled)")
		}
		// Without the fairness requirement B does have an α-cycle:
		// the distinction is exactly fairness.
		lasso, err = New(Options{Workers: 1, Limit: 100}).FindLasso(context.Background(), b, alphaOnly, false)
		if err != nil {
			t.Fatal(err)
		}
		if lasso == nil {
			t.Error("B has an unfair all-α cycle")
		}
	})

	t.Run("C,D fairly equivalent on fair lassos", func(t *testing.T) {
		// Both C and D admit the fair behavior α^k β α^ω; their fair
		// lassos exist and end pumping α after β.
		any := func(ioa.Action) bool { return true }
		for name, aut := range map[string]ioa.Automaton{"C": cAut, "D": dAut} {
			lasso, err := New(Options{Workers: 1, Limit: 100}).FindLasso(context.Background(), aut, any, true)
			if err != nil {
				t.Fatal(err)
			}
			if lasso == nil {
				t.Fatalf("%s must have a fair lasso", name)
			}
			// The fair cycle must contain α (the only sustainable
			// pump) and the stem+cycle must contain exactly one β.
			betas := 0
			for _, act := range append(lasso.Stem.Schedule(), lasso.Cycle...) {
				if act == figures.Beta {
					betas++
				}
			}
			if betas != 1 {
				t.Errorf("%s fair lasso has %d β, want 1 (fair behavior α^k β α^ω)", name, betas)
			}
		}
	})

	t.Run("C,D unfairly inequivalent: α^ω only for C", func(t *testing.T) {
		alphaOnly := func(act ioa.Action) bool { return act == figures.Alpha }
		// C: an all-α cycle reachable without β (i.e. from the start
		// state itself).
		lasso, err := New(Options{Workers: 1, Limit: 100}).FindLasso(context.Background(), cAut, alphaOnly, false)
		if err != nil {
			t.Fatal(err)
		}
		if lasso == nil || len(lasso.Stem.Acts) != 0 {
			t.Error("C must have an all-α cycle at its start state (α^ω ∈ ubeh(C))")
		}
		// D: every α-run from the start without β is bounded; check
		// α^m behaviors cut off at the truncation bound.
		mC, err := New(Options{Workers: 1}).Behaviors(context.Background(), cAut, 8)
		if err != nil {
			t.Fatal(err)
		}
		mD, err := New(Options{Workers: 1}).Behaviors(context.Background(), dAut, 8)
		if err != nil {
			t.Fatal(err)
		}
		alphas := func(k int) []ioa.Action {
			out := make([]ioa.Action, k)
			for i := range out {
				out[i] = figures.Alpha
			}
			return out
		}
		if !mC.Has(alphas(8)) {
			t.Error("C must allow α^8")
		}
		if !mD.Has(alphas(6)) {
			t.Error("D(6) must allow α^6")
		}
		if mD.Has(alphas(7)) {
			t.Error("D(6) must not allow α^7 without β")
		}
	})
}

// swap maps y to its orbit-mate x.
type swap struct{}

func (swap) Name() string { return "swap" }
func (swap) Canonical(s ioa.State) ioa.State {
	if s.Key() == "y" {
		return ioa.KeyState("x")
	}
	return s
}

// TestFindLassoRefusesCanon: x and y flip by one internal action.
// Under a canonicalizer the reachable set is the orbit {x}, and the
// graph over it has no edge — a quotient would answer "no lasso" for a
// system that has one, so FindLasso refuses it by name.
func TestFindLassoRefusesCanon(t *testing.T) {
	x, y := ioa.KeyState("x"), ioa.KeyState("y")
	flip := ioa.MustTable("flip", ioa.MustSignature(nil, nil, []ioa.Action{"flip"}), []ioa.State{x},
		[]ioa.Step{{From: x, Act: "flip", To: y}, {From: y, Act: "flip", To: x}},
		[]ioa.Class{{Name: "c", Actions: ioa.NewSet("flip")}})
	all := func(ioa.Action) bool { return true }
	for _, fair := range []bool{false, true} {
		if l, err := New(Options{Workers: 1}).FindLasso(context.Background(), flip, all, fair); err != nil || l == nil {
			t.Fatalf("fair=%v without a canonicalizer: lasso %v, err %v", fair, l, err)
		}
		_, err := New(Options{Workers: 1, Canon: swap{}}).FindLasso(context.Background(), flip, all, fair)
		if err == nil || !strings.Contains(err.Error(), "Options.Canon (swap)") {
			t.Fatalf("fair=%v under a canonicalizer: %v; want a refusal naming Options.Canon", fair, err)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	var sb strings.Builder
	if err := New(Options{Workers: 1, Limit: 100}).WriteDOT(context.Background(), &sb, figures.Fig21()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "doublecircle", "α", "β", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Hidden actions draw dashed.
	var sb2 strings.Builder
	if err := New(Options{Workers: 1, Limit: 100}).WriteDOT(context.Background(), &sb2, ioa.Hide(figures.Fig21(), ioa.NewSet(figures.Beta))); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb2.String(), "style=dashed") {
		t.Error("internal actions must be dashed")
	}
}
