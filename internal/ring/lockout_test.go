package ring_test

import (
	"context"
	"testing"

	"repro/internal/arbiter/spec"
	"repro/internal/arbiter/users"
	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/ltl"
	"repro/internal/proof"
	"repro/internal/reduce"
	"repro/internal/ring"
)

// TestRingLockoutExact decides GrRing(u) for every user of the closed
// five-process ring, over every fair execution. The ring keeps the
// token while its own user keeps requesting, so no goal holds: for
// each user the check returns a lasso whose fair cycle re-serves
// another process's user and never grants the starved one. The
// round-robin run of TestRingNoLockout is served in ring order only
// because round robin lets the token move before the user re-requests.
func TestRingLockoutExact(t *testing.T) {
	us := spec.DefaultUsers(5)
	sys, err := ring.New(us)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := ioa.Compose("closed", append([]ioa.Automaton{sys.Arbiter}, users.Automata(users.HeavyLoad(us))...)...)
	if err != nil {
		t.Fatal(err)
	}
	var goals []*proof.LeadsTo
	for i := range us {
		goals = append(goals, proof.OnComponent(0, sys.GrRing(i)))
	}
	lassos, err := proof.CheckLeadsTo(context.Background(), closed, explore.Options{}, goals...)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range lassos {
		if l == nil {
			t.Errorf("%s holds on every fair execution; expected a lockout", goals[i].Name)
			continue
		}
		if err := reduce.ReplayTrace(closed, l.Stem); err != nil {
			t.Fatalf("%s stem: %v", goals[i].Name, err)
		}
		if err := reduce.ReplayTrace(closed, &ioa.Execution{Auto: closed, States: l.CycleStates, Acts: l.Cycle}); err != nil {
			t.Fatalf("%s cycle: %v", goals[i].Name, err)
		}
		if len(l.Cycle) == 0 || !ltl.FairSustainable(closed, l.Cycle, l.CycleStates) {
			t.Fatalf("%s: cycle %s is not a fair cycle", goals[i].Name, ioa.TraceString(l.Cycle))
		}
		for _, act := range l.Cycle {
			if act == spec.Grant(us[i]) {
				t.Fatalf("%s: cycle %s grants the starved user", goals[i].Name, ioa.TraceString(l.Cycle))
			}
		}
		t.Logf("%s: stem %s, cycle %s", goals[i].Name, ioa.TraceString(l.Stem.Acts), ioa.TraceString(l.Cycle))
	}
}
