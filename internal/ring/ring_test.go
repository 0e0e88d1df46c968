package ring

import (
	"context"
	"testing"

	"repro/internal/arbiter/spec"
	"repro/internal/arbiter/users"
	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/proof"
	"repro/internal/sim"
)

func ringOf(t *testing.T, n int) (*System, spec.Users) {
	t.Helper()
	us := spec.DefaultUsers(n)
	sys, err := New(us)
	if err != nil {
		t.Fatal(err)
	}
	return sys, us
}

func TestRingValidates(t *testing.T) {
	sys, _ := ringOf(t, 4)
	for i, p := range sys.Procs {
		if err := ioa.Validate(p); err != nil {
			t.Errorf("process %d: %v", i, err)
		}
		if !ioa.IsPrimitive(p) {
			t.Errorf("process %d not primitive", i)
		}
	}
	// External signature equals A₁'s.
	a1 := spec.New(sys.Users)
	if !sys.Arbiter.Sig().External().Equal(a1.Sig().External()) {
		t.Fatalf("ring external signature differs from A1:\n%v\n%v",
			sys.Arbiter.Sig().External(), a1.Sig().External())
	}
}

func TestSingleTokenInvariant(t *testing.T) {
	sys, _ := ringOf(t, 3)
	v, err := explore.New(explore.Options{Workers: 1, Limit: 1000000}).CheckInvariant(context.Background(), sys.Arbiter, func(s ioa.State) bool {
		return sys.TokenCount(s) == 1 && sys.HolderCount(s) <= 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("invariant violated at %q via %v", v.State.Key(), ioa.TraceString(v.Trace.Acts))
	}
}

// TestRingSatisfiesA1 verifies the possibilities mapping over the
// full reachable state space for several ring sizes.
func TestRingSatisfiesA1(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		sys, us := ringOf(t, n)
		a1 := spec.New(us)
		h := sys.H(a1)
		if err := h.VerifyOpts(explore.Options{Limit: 2000000}); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

// TestRingCorrespondence lifts a fair ring execution to the spec level
// (Lemma 28) and checks the correspondence.
func TestRingCorrespondence(t *testing.T) {
	sys, us := ringOf(t, 3)
	a1 := spec.New(us)
	h := sys.H(a1)
	env := users.HeavyLoad(us)
	closed, err := ioa.Compose("closed", append([]ioa.Automaton{sys.Arbiter}, users.Automata(env)...)...)
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
	y, err := h.Correspond(proj)
	if err != nil {
		t.Fatal(err)
	}
	if err := proof.CheckCorrespondence(proj, y, a1); err != nil {
		t.Fatal(err)
	}
	if err := y.Validate(true); err != nil {
		t.Fatal(err)
	}
}

// TestRingNoLockout: under round-robin scheduling with returning users,
// every user is served, in ring order.
func TestRingNoLockout(t *testing.T) {
	sys, us := ringOf(t, 5)
	env := users.HeavyLoad(us)
	closed, err := ioa.Compose("closed", append([]ioa.Automaton{sys.Arbiter}, users.Automata(env)...)...)
	if err != nil {
		t.Fatal(err)
	}
	x, err := sim.Run(closed, &sim.RoundRobin{}, 1200, nil)
	if err != nil {
		t.Fatal(err)
	}
	grants := make(map[string]int)
	var order []string
	for _, act := range x.Acts {
		if act.Base() == "grant" {
			grants[act.Params()[0]]++
			order = append(order, act.Params()[0])
		}
	}
	for _, u := range us {
		if grants[u] < 2 {
			t.Errorf("user %s granted %d times", u, grants[u])
		}
	}
	// Ring order: under heavy load, consecutive grants follow the ring.
	for i := 1; i < len(order); i++ {
		prev, cur := order[i-1], order[i]
		pi, ci := indexOfUser(us, prev), indexOfUser(us, cur)
		if (pi+1)%len(us) != ci {
			t.Fatalf("grants out of ring order: %s then %s (positions %d, %d)", prev, cur, pi, ci)
		}
	}
	// Ring-level goals discharge along this run (not along every fair
	// execution: TestRingLockoutExact).
	proj, err := closed.ProjectExecution(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	var goals []*proof.LeadsTo
	for i := range us {
		goals = append(goals, sys.GrRing(i))
	}
	lat := proof.MaxLatency(proj.Prefix(proj.Len()-100), goals)
	for cond, l := range lat {
		if l > 300 {
			t.Errorf("%s latency %d", cond, l)
		}
	}
}

func indexOfUser(us spec.Users, name string) int {
	for i, u := range us {
		if u == name {
			return i
		}
	}
	return -1
}

// TestRingSingleUser: the degenerate one-process ring (no token
// passing) still serves its user.
func TestRingSingleUser(t *testing.T) {
	sys, us := ringOf(t, 1)
	env := users.HeavyLoad(us)
	closed, err := ioa.Compose("closed", append([]ioa.Automaton{sys.Arbiter}, users.Automata(env)...)...)
	if err != nil {
		t.Fatal(err)
	}
	x, err := sim.Run(closed, &sim.RoundRobin{}, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, act := range x.Acts {
		if act.Base() == "grant" {
			served++
		}
	}
	if served < 3 {
		t.Errorf("single user served %d times", served)
	}
}

func TestRingConstructorErrors(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty ring must fail")
	}
}

func TestRingBogusReturnIgnored(t *testing.T) {
	p := NewProcess(0, 2, "u0")
	s := p.Start()[0]
	s2, _ := ioa.StepTo(p, s, ioa.Act("return", "u0"), 0)
	if s2.Key() != s.Key() {
		t.Error("return without holding must be ignored")
	}
}

func TestRingTokenParking(t *testing.T) {
	// The token stays put while the local user holds the resource.
	p := NewProcess(0, 2, "u0")
	s := p.Start()[0] // has token
	s, _ = ioa.StepTo(p, s, ioa.Act("request", "u0"), 0)
	s, _ = ioa.StepTo(p, s, spec.Grant("u0"), 0)
	enabled := p.Enabled(s)
	if len(enabled) != 0 {
		t.Errorf("while the user holds, the process must not pass or grant: %v", enabled)
	}
	s, _ = ioa.StepTo(p, s, ioa.Act("return", "u0"), 0)
	enabled = p.Enabled(s)
	if len(enabled) != 1 || enabled[0] != PassToken(0, 1) {
		t.Errorf("after return, only passing remains: %v", enabled)
	}
}
