package users

import (
	"context"
	"repro/internal/arbiter/spec"
	"repro/internal/explore"
	"repro/internal/sim"
	"testing"

	"repro/internal/ioa"
)

func TestUserCycle(t *testing.T) {
	u := New(Config{Name: "u0", Rounds: 2})
	if err := ioa.Validate(u); err != nil {
		t.Fatal(err)
	}
	s := u.Start()[0]
	// Round 1.
	if got := u.Enabled(s); len(got) != 1 || got[0] != ioa.Act("request", "u0") {
		t.Fatalf("enabled = %v", got)
	}
	s, _ = ioa.StepTo(u, s, ioa.Act("request", "u0"), 0)
	if got := u.Enabled(s); len(got) != 0 {
		t.Fatalf("waiting user must be quiet: %v", got)
	}
	s, _ = ioa.StepTo(u, s, ioa.Act("grant", "u0"), 0)
	if got := u.Enabled(s); len(got) != 1 || got[0] != ioa.Act("return", "u0") {
		t.Fatalf("holding user must return: %v", got)
	}
	s, _ = ioa.StepTo(u, s, ioa.Act("return", "u0"), 0)
	// Round 2 runs; afterwards the user stops.
	s, _ = ioa.StepTo(u, s, ioa.Act("request", "u0"), 0)
	s, _ = ioa.StepTo(u, s, ioa.Act("grant", "u0"), 0)
	s, _ = ioa.StepTo(u, s, ioa.Act("return", "u0"), 0)
	if got := u.Enabled(s); len(got) != 0 {
		t.Fatalf("user with 0 rounds left must stop: %v", got)
	}
	if st := s.(*State); st.Remaining() != 0 || st.Phase() != Idle {
		t.Errorf("final state %v", st.Key())
	}
}

func TestUserForever(t *testing.T) {
	u := New(Config{Name: "u1", Rounds: -1})
	s := u.Start()[0]
	for i := 0; i < 5; i++ {
		s, _ = ioa.StepTo(u, s, ioa.Act("request", "u1"), 0)
		s, _ = ioa.StepTo(u, s, ioa.Act("grant", "u1"), 0)
		s, _ = ioa.StepTo(u, s, ioa.Act("return", "u1"), 0)
	}
	if got := u.Enabled(s); len(got) != 1 {
		t.Errorf("forever user must keep requesting: %v", got)
	}
}

func TestUserIgnoresSpuriousGrant(t *testing.T) {
	u := New(Config{Name: "u2", Rounds: 1})
	s := u.Start()[0]
	s2, _ := ioa.StepTo(u, s, ioa.Act("grant", "u2"), 0)
	if s2.Key() != s.Key() {
		t.Error("grant while idle must be ignored")
	}
}

func TestFaultyUserReturnsWithoutHolding(t *testing.T) {
	u := New(Config{Name: "u3", Rounds: 1, Faulty: true})
	s := u.Start()[0]
	enabled := ioa.NewSet(u.Enabled(s)...)
	if !enabled.Has(ioa.Act("return", "u3")) {
		t.Fatal("faulty user must offer bogus returns")
	}
	s2, _ := ioa.StepTo(u, s, ioa.Act("return", "u3"), 0)
	if s2.Key() != s.Key() {
		t.Error("bogus return leaves the user state unchanged")
	}
}

func TestLoadFactories(t *testing.T) {
	names := []string{"u0", "u1", "u2"}
	heavy := HeavyLoad(names)
	if len(heavy) != 3 {
		t.Fatal("HeavyLoad size")
	}
	for _, u := range heavy {
		if u.Start()[0].(*State).Remaining() != -1 {
			t.Error("heavy users must run forever")
		}
	}
	light := LightLoad(names, 1)
	for i, u := range light {
		want := 0
		if i == 1 {
			want = -1
		}
		if got := u.Start()[0].(*State).Remaining(); got != want {
			t.Errorf("light user %d remaining = %d, want %d", i, got, want)
		}
	}
	if got := len(Automata(heavy)); got != 3 {
		t.Error("Automata size")
	}
}

func TestPhaseString(t *testing.T) {
	if Idle.String() != "idle" || Waiting.String() != "waiting" || Holding.String() != "holding" {
		t.Error("phase strings")
	}
}

// TestFaultyUserAgainstSpec: composing the faulty user (bogus returns)
// with A1 leaves the arbiter's safety untouched — the spec's return
// handling ignores non-holders (§3.1.2), so the composite state space
// still has at most one holder everywhere.
func TestFaultyUserAgainstSpec(t *testing.T) {
	a1 := spec.New(spec.Users{"u0", "u1"})
	good := New(Config{Name: "u1", Rounds: -1})
	bad := New(Config{Name: "u0", Rounds: -1, Faulty: true})
	closed, err := ioa.Compose("closed", a1, bad, good)
	if err != nil {
		t.Fatal(err)
	}
	// The interesting safety check: whenever the good user believes it
	// holds the resource, the arbiter agrees — the faulty user's bogus
	// returns never yank the resource out from under u1.
	v, err := explore.New(explore.Options{Limit: 1000000}).CheckInvariant(context.Background(), explore.ClosedWorld(closed), func(s ioa.State) bool {
		ts := s.(*ioa.TupleState)
		arb := ts.At(0).(*spec.State)
		goodUser := ts.At(2).(*State)
		return goodUser.Phase() != Holding || arb.Holder() == 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("violation: %v", ioa.TraceString(v.Trace.Acts))
	}
	// Fair run: the good user keeps being served despite the bogus
	// returns flooding in.
	x, err := sim.Run(closed, &sim.RoundRobin{}, 600, nil)
	if err != nil {
		t.Fatal(err)
	}
	grants := 0
	for _, act := range x.Acts {
		if act == ioa.Act("grant", "u1") {
			grants++
		}
	}
	if grants < 5 {
		t.Errorf("good user starved next to a faulty one: %d grants", grants)
	}
}
