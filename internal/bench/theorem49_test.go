package bench

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/arbiter/spec"
	"repro/internal/arbiter/users"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/ltl"
	"repro/internal/proof"
	"repro/internal/reduce"
)

// waitingLeadsToGrant is E₁'s no-lockout goal on a closed arbiter
// system (component 0 the arbiter, component 1+u user u): user u
// Waiting ↝ grant(u). S reads the user component, because an arbiter
// below the specification does not keep A₁'s requester set.
func waitingLeadsToGrant(names []string, u int) *proof.LeadsTo {
	return &proof.LeadsTo{
		Name: fmt.Sprintf("Waiting(%s)↝grant(%s)", names[u], names[u]),
		S: func(s ioa.State) bool {
			us, ok := s.(*ioa.TupleState).At(1 + u).(*users.State)
			return ok && us.Phase() == users.Waiting
		},
		T: func(act ioa.Action) bool { return act == spec.Grant(names[u]) },
	}
}

// closedA3 is closed A₃ over the binary tree with n users, heavy-load
// users around it, and the names of those users.
func closedA3(t *testing.T, n int) (*ioa.Composite, []string) {
	t.Helper()
	tr, err := graph.BinaryTree(n)
	if err != nil {
		t.Fatal(err)
	}
	a, err := SystemOn("arbiter3", tr, 3, false, faults.Injection{})
	if err != nil {
		t.Fatal(err)
	}
	return a.(*ioa.Composite), userNames(tr)
}

// TestTheorem49Exact decides Theorem 49's no-lockout half exactly:
// over every fair execution of closed A₃ with users that return the
// resource, every waiting user is eventually granted. The must-fail
// arm replaces user 0 by a hog that never returns (RtnRes fails), and
// every other user must then be refuted by a lasso that replays from a
// start state, is fair-sustainable, and grants it nothing.
func TestTheorem49Exact(t *testing.T) {
	for n := 3; n <= 7; n++ {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			a, names := closedA3(t, n)
			var goals []*proof.LeadsTo
			for u := range names {
				goals = append(goals, waitingLeadsToGrant(names, u))
			}
			lassos, err := proof.CheckLeadsTo(context.Background(), a, explore.Options{}, goals...)
			if err != nil {
				t.Fatal(err)
			}
			for u, l := range lassos {
				if l != nil {
					t.Errorf("%s refuted: stem %s, cycle %s", goals[u].Name,
						ioa.TraceString(l.Stem.Acts), ioa.TraceString(l.Cycle))
				}
			}
		})
	}

	t.Run("hog", func(t *testing.T) {
		a, names := closedA3(t, 3)
		hog := ioa.NewDef("hog")
		hog.Start(ioa.KeyState("idle"))
		hog.Output(spec.Request(names[0]), "hog",
			func(s ioa.State) bool { return s.Key() == "idle" },
			func(ioa.State) ioa.State { return ioa.KeyState("waiting") })
		hog.Input(spec.Grant(names[0]), func(ioa.State) ioa.State { return ioa.KeyState("holding-forever") })
		comps := append([]ioa.Automaton{a.Components()[0], hog.MustBuild()}, users.Automata(users.HeavyLoad(names[1:]))...)
		composed, err := ioa.Compose("arbiter3-hog", comps...)
		if err != nil {
			t.Fatal(err)
		}
		closed := explore.ClosedWorld(composed)
		var goals []*proof.LeadsTo
		for u := 1; u < len(names); u++ {
			goals = append(goals, waitingLeadsToGrant(names, u))
		}
		lassos, err := proof.CheckLeadsTo(context.Background(), closed, explore.Options{}, goals...)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range lassos {
			u := i + 1
			if l == nil {
				t.Errorf("%s holds with a hog that never returns; expected a lockout", goals[i].Name)
				continue
			}
			if err := reduce.ReplayTrace(closed, l.Stem); err != nil {
				t.Fatalf("%s stem: %v", goals[i].Name, err)
			}
			if err := l.Stem.Validate(true); err != nil {
				t.Fatalf("%s stem: %v", goals[i].Name, err)
			}
			if err := reduce.ReplayTrace(closed, &ioa.Execution{Auto: closed, States: l.CycleStates, Acts: l.Cycle}); err != nil {
				t.Fatalf("%s cycle: %v", goals[i].Name, err)
			}
			if !ltl.FairSustainable(closed, l.Cycle, l.CycleStates) {
				t.Fatalf("%s: cycle %s is not fair-sustainable", goals[i].Name, ioa.TraceString(l.Cycle))
			}
			for _, act := range l.Cycle {
				if act == spec.Grant(names[u]) {
					t.Fatalf("%s: cycle %s grants the starved user", goals[i].Name, ioa.TraceString(l.Cycle))
				}
			}
			t.Logf("%s: stem %s, cycle %s", goals[i].Name, ioa.TraceString(l.Stem.Acts), ioa.TraceString(l.Cycle))
		}
	})
}
