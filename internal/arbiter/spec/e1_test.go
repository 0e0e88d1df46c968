package spec_test

// E₁'s goals refuted exactly: each test below keeps its sampled run as
// a smoke test and asks proof.CheckLeadsTo, over every fair execution,
// for a lasso starving u1.

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
	"repro/internal/sim"
)

// starves asks for a fair execution of closed (A₁ its component 0) in
// which user u requests and is never granted, and checks the lasso:
// stem and cycle replay, the cycle is fair-sustainable (at a quiescent
// end: every class is disabled there) and it grants nothing to u.
func starves(t *testing.T, closed ioa.Automaton, us spec.Users, u int) *explore.Lasso {
	t.Helper()
	ls, err := proof.CheckLeadsTo(context.Background(), closed, explore.Options{},
		proof.OnComponent(0, spec.GrRes1(us, u)))
	if err != nil {
		t.Fatal(err)
	}
	l := ls[0]
	if l == nil {
		t.Fatalf("GrRes1(%s) holds on every fair execution; expected a lockout", us[u])
	}
	if err := reduce.ReplayTrace(closed, l.Stem); err != nil {
		t.Fatalf("stem: %v", err)
	}
	cycle := &ioa.Execution{Auto: closed, States: l.CycleStates, Acts: l.Cycle}
	if err := reduce.ReplayTrace(closed, cycle); err != nil {
		t.Fatalf("cycle: %v", err)
	}
	if l.CycleStates[0].Key() != l.Stem.Last().Key() || l.CycleStates[len(l.CycleStates)-1].Key() != l.Stem.Last().Key() {
		t.Fatal("the cycle must start and end where the stem ends")
	}
	if !ltl.FairSustainable(closed, l.Cycle, l.CycleStates) {
		t.Fatalf("cycle %s is not fair-sustainable", ioa.TraceString(l.Cycle))
	}
	for _, act := range l.Cycle {
		if act == spec.Grant(us[u]) {
			t.Fatalf("cycle %s grants the starved %s", ioa.TraceString(l.Cycle), us[u])
		}
	}
	t.Logf("lasso: stem %s, cycle %s", ioa.TraceString(l.Stem.Acts), ioa.TraceString(l.Cycle))
	return l
}

func user(name string) ioa.Automaton { return users.New(users.Config{Name: name, Rounds: -1}) }

// TestFairIsWeakerThanE1 documents that Fair(A₁) is a strict superset
// of E₁: A₁ is primitive (all grants share one class), so class-level
// weak fairness permits executions in which the arbiter always serves
// the same user while another starves. The paper therefore specifies
// the arbiter by the explicit conditions of E₁, not by Fair(A₁).
func TestFairIsWeakerThanE1(t *testing.T) {
	us := spec.DefaultUsers(2)
	a := spec.New(us)
	closed, err := ioa.Compose("biased", a, user(us[0]), user(us[1]))
	if err != nil {
		t.Fatal(err)
	}
	if l := starves(t, closed, us, 1); len(l.Cycle) == 0 {
		t.Error("with both users cycling, the starving execution must be infinite")
	}

	// A biased policy: it fires the arbiter class only at moments when
	// grant(u0) is enabled. The arbiter class still fires infinitely
	// often (u0 keeps cycling), so the execution is fair; u1 starves.
	biased := &biasedPolicy{favored: spec.Grant(us[0])}
	x, err := sim.Run(closed, biased, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ioa.CheckFairWindow(x, 2*len(closed.Parts())); err != nil {
		t.Fatalf("the biased run must still be FAIR: %v", err)
	}
	proj, err := closed.ProjectExecution(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	mod := spec.E1(a, us)
	if len(proof.Pending(proj, mod.Goals)) == 0 {
		t.Error("expected a starving user: fair ≠ no-lockout for a primitive arbiter")
	}
	for _, act := range proj.Acts {
		if act == spec.Grant(us[1]) {
			t.Fatal("u1 must never be granted under the biased (yet fair) policy")
		}
	}
}

// biasedPolicy is class-fair but fires the arbiter's class only when
// the favored grant is enabled, and then always picks it.
type biasedPolicy struct {
	next    int
	favored ioa.Action
}

func (p *biasedPolicy) Choose(a ioa.Automaton, s ioa.State, enabledClasses []int) sim.Choice {
	n := len(a.Parts())
	var fallback *sim.Choice
	for k := 0; k < n; k++ {
		ci := (p.next + k) % n
		for _, e := range enabledClasses {
			if e != ci {
				continue
			}
			acts := ioa.NewSet(ioa.EnabledIn(a, s, a.Parts()[ci])...)
			if acts.Has(p.favored) {
				p.next = (ci + 1) % n
				return sim.Choice{Class: ci, Action: p.favored}
			}
			isArbiterClass := false
			for act := range acts {
				if act.Base() == "grant" {
					isArbiterClass = true
					break
				}
			}
			if isArbiterClass {
				// Defer the arbiter until the favored grant is up.
				if fallback == nil {
					c := sim.Choice{Class: ci, Action: acts.Sorted()[0]}
					fallback = &c
				}
				continue
			}
			p.next = (ci + 1) % n
			return sim.Choice{Class: ci, Action: acts.Sorted()[0]}
		}
	}
	// Only the arbiter class is enabled and the favored grant is not:
	// forced to serve someone else (does not arise in this scenario).
	return *fallback
}

// TestE1LockoutWithoutRtnRes injects the failure the C1 hypothesis
// guards against: a user that never returns. The module judges such
// executions vacuous (hypothesis pending), and other users starve.
func TestE1LockoutWithoutRtnRes(t *testing.T) {
	us := spec.DefaultUsers(2)
	a := spec.New(us)
	hog := ioa.NewDef("hog")
	hog.Start(ioa.KeyState("idle"))
	hog.Output(ioa.Act("request", us[0]), "hog",
		func(s ioa.State) bool { return s.Key() == "idle" },
		func(ioa.State) ioa.State { return ioa.KeyState("waiting") })
	hog.Input(ioa.Act("grant", us[0]), func(s ioa.State) ioa.State {
		return ioa.KeyState("holding-forever")
	})
	hogA := hog.MustBuild()
	closed, err := ioa.Compose("lockout", a, hogA, user(us[1]))
	if err != nil {
		t.Fatal(err)
	}
	starves(t, closed, us, 1)

	x, err := sim.Run(closed, &sim.RoundRobin{}, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := closed.ProjectExecution(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	mod := spec.E1(a, us)
	if v := mod.Judge(proj); v != proof.Vacuous {
		t.Errorf("verdict = %v; a never-returning holder must make C1 vacuous", v)
	}
	// u1 never gets the resource after the hog holds it.
	sawHogGrant := false
	u1GrantsAfter := 0
	for _, act := range proj.Acts {
		if act == ioa.Act("grant", us[0]) {
			sawHogGrant = true
		}
		if sawHogGrant && act == ioa.Act("grant", us[1]) {
			u1GrantsAfter++
		}
	}
	if !sawHogGrant {
		t.Fatal("hog never got the resource")
	}
	if u1GrantsAfter != 0 {
		t.Errorf("u1 was granted %d times after lockout", u1GrantsAfter)
	}
}
