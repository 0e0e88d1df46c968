package spec

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/proof"
	"repro/internal/sim"

	"repro/internal/testseed"
)

func newA1(t *testing.T, n int) (*ioa.Prog, Users) {
	t.Helper()
	us := DefaultUsers(n)
	return New(us), us
}

func TestA1Validate(t *testing.T) {
	a, _ := newA1(t, 3)
	if err := ioa.Validate(a); err != nil {
		t.Fatal(err)
	}
	if !ioa.IsPrimitive(a) {
		t.Error("A1 models the arbiter as a single component")
	}
}

func TestA1GrantRequiresRequestAndHolder(t *testing.T) {
	a, us := newA1(t, 2)
	s0 := a.Start()[0]
	if got := a.Enabled(s0); len(got) != 0 {
		t.Fatalf("no grants without requests: %v", got)
	}
	s1, _ := ioa.StepTo(a, s0, Request(us[0]), 0)
	enabled := a.Enabled(s1)
	if len(enabled) != 1 || enabled[0] != Grant(us[0]) {
		t.Fatalf("enabled = %v, want grant(u0)", enabled)
	}
	s2, _ := ioa.StepTo(a, s1, Grant(us[0]), 0)
	// While u0 holds, a request by u1 must not be grantable.
	s3, _ := ioa.StepTo(a, s2, Request(us[1]), 0)
	if got := a.Enabled(s3); len(got) != 0 {
		t.Fatalf("grant while resource held: %v", got)
	}
	s4, _ := ioa.StepTo(a, s3, Return(us[0]), 0)
	if got := a.Enabled(s4); len(got) != 1 || got[0] != Grant(us[1]) {
		t.Fatalf("after return, grant(u1) should be enabled: %v", got)
	}
}

func TestA1FaultyReturnIgnored(t *testing.T) {
	a, us := newA1(t, 2)
	s0 := a.Start()[0]
	s1, _ := ioa.StepTo(a, s0, Request(us[0]), 0)
	s2, _ := ioa.StepTo(a, s1, Grant(us[0]), 0)
	// u1 "returns" a resource it does not hold: no effect (§3.1.2).
	s3, _ := ioa.StepTo(a, s2, Return(us[1]), 0)
	if s3.Key() != s2.Key() {
		t.Error("bogus return must be ignored")
	}
	// u0's real return works.
	s4, _ := ioa.StepTo(a, s3, Return(us[0]), 0)
	if s4.(*State).Holder() != -1 {
		t.Error("return must hand the resource to the arbiter")
	}
}

func TestA1RequestWhileHoldingRecorded(t *testing.T) {
	a, us := newA1(t, 1)
	s0 := a.Start()[0]
	s1, _ := ioa.StepTo(a, s0, Request(us[0]), 0)
	s2, _ := ioa.StepTo(a, s1, Grant(us[0]), 0)
	// Requesting while holding is recorded for later service.
	s3, _ := ioa.StepTo(a, s2, Request(us[0]), 0)
	if !s3.(*State).Requesting(0) {
		t.Error("request while holding must be recorded")
	}
	s4, _ := ioa.StepTo(a, s3, Return(us[0]), 0)
	if got := a.Enabled(s4); len(got) != 1 || got[0] != Grant(us[0]) {
		t.Errorf("recorded request must be servable: %v", got)
	}
}

// TestA1MutualExclusionStructural explores all states reachable with
// two users and verifies at most one holder — trivially true since
// holder is a scalar, but the exploration also validates
// input-enabledness across the space.
func TestA1MutualExclusionStructural(t *testing.T) {
	a, _ := newA1(t, 2)
	states, err := explore.New(explore.Options{Workers: 1, Limit: 10000}).Reach(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 12 { // 4 requester sets × 3 holders
		t.Errorf("reachable = %d, want 12", len(states))
	}
	if err := ioa.CheckInputEnabled(a, states); err != nil {
		t.Error(err)
	}
}

// TestE1NoLockoutUnderFairUsers composes A1 with well-behaved users
// and checks the C1 goals discharge along fair runs.
func TestE1NoLockoutUnderFairUsers(t *testing.T) {
	a, us := newA1(t, 3)
	var comps []ioa.Automaton
	comps = append(comps, a)
	for _, name := range us {
		comps = append(comps, userAutomaton(t, name))
	}
	closed, err := ioa.Compose("closed1", comps...)
	if err != nil {
		t.Fatal(err)
	}
	x, err := sim.Run(closed, &sim.RoundRobin{}, 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := closed.ProjectExecution(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	mod := E1(a, us)
	// Check every goal obligation is discharged within a window: each
	// pending GrRes must resolve before the run's end minus slack.
	lat := proof.MaxLatency(proj.Prefix(proj.Len()-30), mod.Goals)
	for name, l := range lat {
		if l > 100 {
			t.Errorf("condition %s latency %d too high under fair scheduling", name, l)
		}
	}
	// And all users actually got grants.
	grants := map[ioa.Action]int{}
	for _, act := range proj.Acts {
		if act.Base() == "grant" {
			grants[act]++
		}
	}
	if len(grants) != 3 {
		t.Errorf("grants per user: %v, want all three served", grants)
	}
}

// userAutomaton is a minimal always-requesting user (kept local to
// avoid a dependency cycle with package users).
func userAutomaton(t *testing.T, name string) *ioa.Prog {
	t.Helper()
	d := ioa.NewDef("U_" + name)
	d.Start(ioa.KeyState("idle"))
	d.Output(ioa.Act("request", name), name,
		func(s ioa.State) bool { return s.Key() == "idle" },
		func(ioa.State) ioa.State { return ioa.KeyState("waiting") })
	d.Input(ioa.Act("grant", name), func(s ioa.State) ioa.State {
		if s.Key() == "waiting" {
			return ioa.KeyState("holding")
		}
		return s
	})
	d.Output(ioa.Act("return", name), name,
		func(s ioa.State) bool { return s.Key() == "holding" },
		func(ioa.State) ioa.State { return ioa.KeyState("idle") })
	return d.MustBuild()
}

// TestFairIsWeakerThanE1 documents that Fair(A₁) is a strict superset
// of E₁: A₁ is primitive (all grants share one class), so class-level
// weak fairness permits executions in which the arbiter always serves
// the same user while another starves. The paper therefore specifies
// the arbiter by the explicit conditions of E₁, not by Fair(A₁).
func TestFairIsWeakerThanE1(t *testing.T) {
	a, us := newA1(t, 2)
	comps := []ioa.Automaton{a, userAutomaton(t, us[0]), userAutomaton(t, us[1])}
	closed, err := ioa.Compose("biased", comps...)
	if err != nil {
		t.Fatal(err)
	}
	// A biased policy: it fires the arbiter class only at moments when
	// grant(u0) is enabled. The arbiter class still fires infinitely
	// often (u0 keeps cycling), so the execution is fair; u1 starves.
	biased := &biasedPolicy{favored: Grant(us[0])}
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
	mod := E1(a, us)
	if len(proof.Pending(proj, mod.Goals)) == 0 {
		t.Error("expected a starving user: fair ≠ no-lockout for a primitive arbiter")
	}
	for _, act := range proj.Acts {
		if act == Grant(us[1]) {
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
	a, us := newA1(t, 2)
	hog := ioa.NewDef("hog")
	hog.Start(ioa.KeyState("idle"))
	hog.Output(ioa.Act("request", us[0]), "hog",
		func(s ioa.State) bool { return s.Key() == "idle" },
		func(ioa.State) ioa.State { return ioa.KeyState("waiting") })
	hog.Input(ioa.Act("grant", us[0]), func(s ioa.State) ioa.State {
		return ioa.KeyState("holding-forever")
	})
	hogA := hog.MustBuild()
	closed, err := ioa.Compose("lockout", a, hogA, userAutomaton(t, us[1]))
	if err != nil {
		t.Fatal(err)
	}
	x, err := sim.Run(closed, &sim.RoundRobin{}, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := closed.ProjectExecution(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	mod := E1(a, us)
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

// TestA1RandomDrives is a property test: arbitrary interleavings of
// inputs and enabled grants never violate the arbiter's structural
// invariants (holder changes only by grant/return; grants only to
// requesters while the arbiter holds the resource).
func TestA1RandomDrives(t *testing.T) {
	a, us := newA1(t, 3)
	f := func(script []uint8) bool {
		s := a.Start()[0]
		for _, b := range script {
			u := int(b) % 3
			prev := s.(*State)
			switch (b / 3) % 3 {
			case 0:
				s, _ = ioa.StepTo(a, s, Request(us[u]), 0)
				if !s.(*State).Requesting(u) {
					return false
				}
			case 1:
				s, _ = ioa.StepTo(a, s, Return(us[u]), 0)
				cur := s.(*State)
				if prev.Holder() == u && cur.Holder() != -1 {
					return false
				}
				if prev.Holder() != u && cur.Holder() != prev.Holder() {
					return false // bogus return must not move the resource
				}
			case 2:
				next := ioa.Successors(a, s, Grant(us[u]))
				if len(next) == 0 {
					// Disabled: must be because u is not requesting or
					// someone holds the resource.
					if prev.Requesting(u) && prev.Holder() == -1 {
						return false
					}
					continue
				}
				s = next[0]
				cur := s.(*State)
				if cur.Holder() != u || cur.Requesting(u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, testseed.Quick(t, 300)); err != nil {
		t.Error(err)
	}
}
