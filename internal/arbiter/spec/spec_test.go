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

// TestIdleInputReturnsItsState: over every reachable state of A₁ at
// four users, request(u) while u is requesting and return(u) from a
// non-holder yield the state they were given, pointer-equal.
func TestIdleInputReturnsItsState(t *testing.T) {
	a1, us := newA1(t, 4)
	reach, err := explore.New(explore.Options{Workers: 1}).Reach(context.Background(), a1)
	if err != nil {
		t.Fatal(err)
	}
	idle := map[string]int{}
	for _, st := range reach {
		s := st.(*State)
		for i, u := range us {
			for _, c := range []struct {
				act  ioa.Action
				idle bool
			}{
				{Request(u), s.Requesting(i)},
				{Return(u), s.Holder() != i},
			} {
				if !c.idle {
					continue
				}
				idle[c.act.Base()]++
				if got := ioa.Successors(a1, s, c.act); len(got) != 1 || got[0] != st {
					t.Fatalf("%s from %s: yields %d state(s), not the state itself", c.act, s.Key(), len(got))
				}
			}
		}
	}
	if idle["request"] == 0 || idle["return"] == 0 {
		t.Fatalf("idle inputs checked over %d states: %v, want both kinds", len(reach), idle)
	}
}
