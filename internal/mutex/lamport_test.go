package mutex

import (
	"context"
	"sync"
	"testing"

	"repro/internal/domain"
	"repro/internal/explore"
	"repro/internal/induct"
	"repro/internal/lattice"
	"repro/internal/reduce"
)

// TestLamportInvInductive is the headline certification: the full
// conjunction is inductive over the complete 518,400-state TypeOK
// domain at (N=2, M=2, C=1) — a candidate space ~20× larger than any
// graph the reachability engines have materialized, walked in O(1)
// resident memory.
func TestLamportInvInductive(t *testing.T) {
	l, err := NewLamport(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := induct.Check(context.Background(), l.Auto, l.Domain(), l.Inv(), induct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cert.CTI != nil {
		t.Fatalf("expected inductive, got %s", cert.CTI)
	}
	if !cert.Inductive || !cert.AdequacyChecked {
		t.Fatalf("expected inductive with checked adequacy, got %+v", cert)
	}
	if cert.DomainStates != 518400 {
		t.Fatalf("domain states = %d, want 518400", cert.DomainStates)
	}
	if cert.Candidates == 0 || cert.Transitions == 0 {
		t.Fatalf("vacuous certification: %+v", cert)
	}
}

// TestLamportKeyConcurrent: a state builds its key on first use, so
// goroutines asking one unkeyed state at once race to build it (run it
// under -race); every one gets the key of the state it was cloned from.
func TestLamportKeyConcurrent(t *testing.T) {
	l, err := NewLamport(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	states, err := explore.New(explore.Options{}).Reach(context.Background(), l.Auto)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range states {
		want, fresh := s.Key(), s.(*LamportState).clone()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := fresh.Key(); got != want {
					t.Errorf("goroutine %d: a clone of %q keys as %q", g, want, got)
				}
			}()
		}
		wg.Wait()
	}
}

func TestLamportDomainSize(t *testing.T) {
	l, err := NewLamport(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := domain.Size(l.Domain()); n != 518400 {
		t.Fatalf("domain.Size = %d, want 518400", n)
	}
	l2, err := NewLamport(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := domain.Size(l2.Domain()); n != 9144576 {
		t.Fatalf("domain.Size(C=2) = %d, want 9144576", n)
	}
}

// TestLamportReachableInInv cross-validates the certificate against
// reachability: every state the explorer reaches satisfies the
// inductive conjunction (the soundness direction, checked
// empirically), and none of them is a deadlock surprise — saturation
// deadlocks are legal, a mutual-exclusion violation is not.
func TestLamportReachableInInv(t *testing.T) {
	l, err := NewLamport(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	inv := l.Inv()
	states, err := explore.New(explore.Options{}).Reach(context.Background(), l.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 {
		t.Fatal("no reachable states")
	}
	for _, s := range states {
		if lem, bad := inv.FirstViolated(s); bad {
			t.Fatalf("reachable state %s violates %s", s.Key(), lem.Name)
		}
	}
	t.Logf("%d reachable states, all satisfy Inv", len(states))
}

// TestLamportMutexStrengthens drives the CTI loop: TypeOK ∧ Mutex is
// true but not inductive, every CTI's pre-state is refuted by some
// library lemma, and the strengthening loop converges to an inductive
// conjunction. The first CTI must replay as a legal one-step
// execution (its start is unreachable; ReplayTrace checks steps, not
// reachability).
func TestLamportMutexStrengthens(t *testing.T) {
	l, err := NewLamport(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := lattice.Conj("Inv", l.TypeOK(), l.MutexLemma())
	res, err := induct.Strengthen(context.Background(), l.Auto, l.Domain(), base, l.Lemmas(), induct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certificate.Inductive {
		t.Fatalf("strengthening failed:\n%s", res)
	}
	if len(res.Rounds) == 0 {
		t.Fatal("TypeOK ∧ Mutex certified without strengthening; it should not be inductive bare")
	}
	for _, round := range res.Rounds {
		if round.CTI.Kind != induct.KindStep {
			t.Fatalf("unexpected CTI kind %q", round.CTI.Kind)
		}
		if err := reduce.ReplayTrace(l.Auto, round.CTI.Trace); err != nil {
			t.Fatalf("CTI trace does not replay: %v", err)
		}
	}
	t.Logf("converged in %d rounds: %s", len(res.Rounds), res.Final)
}
