package proof

import (
	"testing"

	"repro/internal/ioa"
)

// tokenMachine: input "want" sets a flag; output "give" clears it.
func tokenMachine(t *testing.T) *ioa.Prog {
	t.Helper()
	d := ioa.NewDef("token")
	d.Start(ioa.KeyState("idle"))
	d.Input("want", func(s ioa.State) ioa.State { return ioa.KeyState("wanting") })
	d.Output("give", "m",
		func(s ioa.State) bool { return s.Key() == "wanting" },
		func(s ioa.State) ioa.State { return ioa.KeyState("idle") })
	return d.MustBuild()
}

func wantGive(t *testing.T) *LeadsTo {
	t.Helper()
	return &LeadsTo{
		Name: "want↝give",
		S:    func(s ioa.State) bool { return s.Key() == "wanting" },
		T:    func(a ioa.Action) bool { return a == "give" },
	}
}

func run(t *testing.T, a ioa.Automaton, acts ...ioa.Action) *ioa.Execution {
	t.Helper()
	x := ioa.NewExecution(a, a.Start()[0])
	for _, act := range acts {
		if err := x.Extend(act, 0); err != nil {
			t.Fatalf("extend %v: %v", act, err)
		}
	}
	return x
}

func TestPendingAndSatisfies(t *testing.T) {
	a := tokenMachine(t)
	c := wantGive(t)

	tests := []struct {
		name    string
		acts    []ioa.Action
		pending int
	}{
		{name: "empty", acts: nil, pending: 0},
		{name: "discharged", acts: []ioa.Action{"want", "give"}, pending: 0},
		{name: "open", acts: []ioa.Action{"want"}, pending: 1},
		{name: "reopened", acts: []ioa.Action{"want", "give", "want"}, pending: 1},
		{name: "double-want-once-given", acts: []ioa.Action{"want", "want", "give"}, pending: 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			x := run(t, a, tc.acts...)
			got := Pending(x, []*LeadsTo{c})
			if len(got) != tc.pending {
				t.Errorf("Pending = %d, want %d", len(got), tc.pending)
			}
			if Satisfies(x, []*LeadsTo{c}) != (tc.pending == 0) {
				t.Error("Satisfies inconsistent with Pending")
			}
		})
	}
}

func TestPendingReportsEarliestBirth(t *testing.T) {
	a := tokenMachine(t)
	c := wantGive(t)
	x := run(t, a, "want", "want", "want")
	got := Pending(x, []*LeadsTo{c})
	if len(got) != 1 || got[0].From != 1 {
		t.Errorf("obligation birth = %+v, want From=1 (state after first want)", got)
	}
}

func TestMaxLatency(t *testing.T) {
	a := tokenMachine(t)
	c := wantGive(t)
	// want (open 1..), filler via self-looping want inputs, give at
	// step 4: latency = 3 steps.
	x := run(t, a, "want", "want", "want", "give")
	lat := MaxLatency(x, []*LeadsTo{c})
	if lat["want↝give"] != 3 {
		t.Errorf("latency = %d, want 3", lat["want↝give"])
	}
	// Undischarged obligations count to the end.
	y := run(t, a, "want", "want")
	lat = MaxLatency(y, []*LeadsTo{c})
	if lat["want↝give"] != 1 {
		t.Errorf("open latency = %d, want 1", lat["want↝give"])
	}
}

func TestCondModuleJudge(t *testing.T) {
	a := tokenMachine(t)
	hyp := &LeadsTo{
		Name: "hyp",
		S:    func(s ioa.State) bool { return s.Key() == "wanting" },
		T:    func(act ioa.Action) bool { return act == "give" },
	}
	goal := &LeadsTo{
		Name: "goal",
		S:    func(s ioa.State) bool { return s.Key() == "idle" },
		T:    func(act ioa.Action) bool { return act == "want" },
	}
	m := &CondModule{Name: "M", Auto: a, Hypotheses: []*LeadsTo{hyp}, Goals: []*LeadsTo{goal}}

	// Hypothesis pending → vacuous.
	if v := m.Judge(run(t, a, "want")); v != Vacuous {
		t.Errorf("verdict = %v, want vacuous", v)
	}
	// Hypotheses met, goal open (ends idle without a following want).
	if v := m.Judge(run(t, a, "want", "give")); v != PendingGoals {
		t.Errorf("verdict = %v, want pending-goals", v)
	}
	// All discharged: ends wanting... hypothesis open again; craft an
	// execution ending right after want→give→want→give with goal
	// satisfied: idle state at indexes 0 and 2 followed by want.
	x := run(t, a, "want", "give", "want", "give")
	if v := m.Judge(x); v != PendingGoals {
		// Final state is idle with no later want: goal open.
		t.Errorf("verdict = %v, want pending-goals", v)
	}
}

func TestVerdictString(t *testing.T) {
	if Holds.String() != "holds" || PendingGoals.String() != "pending-goals" || Vacuous.String() != "vacuous" {
		t.Error("verdict strings wrong")
	}
}

func TestOnComponent(t *testing.T) {
	inner := &LeadsTo{
		Name: "c",
		S:    func(s ioa.State) bool { return s.Key() == "hot" },
		T:    func(a ioa.Action) bool { return a == "cool" },
	}
	lifted := OnComponent(1, inner)
	hot := ioa.NewTupleState([]ioa.State{ioa.KeyState("x"), ioa.KeyState("hot")})
	cold := ioa.NewTupleState([]ioa.State{ioa.KeyState("hot"), ioa.KeyState("y")})
	if !lifted.S(hot) {
		t.Error("lifted condition must see component 1")
	}
	if lifted.S(cold) {
		t.Error("lifted condition must not match other components")
	}
	if lifted.S(ioa.KeyState("hot")) {
		t.Error("non-tuple states never match")
	}
	if !lifted.T("cool") {
		t.Error("action predicate unchanged")
	}
}
