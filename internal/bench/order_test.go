package bench

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/explore"
	"repro/internal/ioa"
)

// TestOneVisitOrder: every entry point numbers states in one order, the
// sequential BFS order. On every catalogue system at three users (its
// first orderStates states where it has more: mutex has 288 800, A₃ʳ's
// retransmissions more than a million), with no canonicalizer and with
// the catalogue's, Reach returns ReferenceReach's slice element by
// element (where there is no canonicalizer), CheckInvariant reports the
// first violating state in that order with a witness that is an
// execution, and Reach under a limit of half the states returns the
// first half.
func TestOneVisitOrder(t *testing.T) {
	const orderStates = 3000
	ctx := context.Background()
	for _, sys := range Systems() {
		a, err := sys.Build(Params{Users: 3, UsersSet: true, GridBase: 4, GridDigits: 5})
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		canons := []explore.Canonicalizer{nil}
		if sys.Canon != nil {
			c, err := sys.Canon(3)
			if err != nil {
				t.Fatalf("%s: %v", sys.Name, err)
			}
			canons = append(canons, c)
		}
		for _, canon := range canons {
			label := fmt.Sprintf("%s canon=%v", sys.Name, canon != nil)
			run := func(limit int) explore.Options {
				return explore.Options{Canon: canon, Limit: limit}
			}
			// The kernel's Reach ends in ErrLimit when the system has more
			// than orderStates states, and every other Reach must end as
			// it does.
			ref, limited := explore.New(run(orderStates)).Reach(ctx, a)
			if limited != nil && !errors.Is(limited, explore.ErrLimit) {
				t.Fatalf("%s: %v", label, limited)
			}
			sameEnd := func(err error) bool {
				return err == nil && limited == nil || errors.Is(err, explore.ErrLimit) && limited != nil
			}
			if canon == nil {
				seed, err := explore.ReferenceReach(a, orderStates)
				if !sameEnd(err) {
					t.Fatalf("%s: ReferenceReach: %v, kernel: %v", label, err, limited)
				}
				sameStates(t, label+" kernel vs ReferenceReach", seed, ref)
			}
			// An orbit-invariant predicate failing two thirds of the way
			// through the order, so the witness crosses many levels.
			orbit := func(s ioa.State) string {
				if canon != nil {
					s = canon.Canonical(s)
				}
				return s.Key()
			}
			target := orbit(ref[2*len(ref)/3])
			pred := func(s ioa.State) bool { return orbit(s) != target }
			v, err := explore.New(run(0)).CheckInvariant(ctx, a, pred)
			if err != nil || v == nil {
				t.Fatalf("%s: check = (%v, %v), want a violation", label, v, err)
			}
			if want := ref[2*len(ref)/3].Key(); v.State.Key() != want {
				t.Fatalf("%s: violation at %q, want the first in BFS order, %q", label, v.State.Key(), want)
			}
			if err := v.Trace.Validate(true); err != nil || v.Trace.Last().Key() != v.State.Key() {
				t.Fatalf("%s: the witness is not an execution ending at the violation (%v)", label, err)
			}
			half := len(ref) / 2
			part, err := explore.New(run(half)).Reach(ctx, a)
			if !errors.Is(err, explore.ErrLimit) {
				t.Fatalf("%s limit=%d: err = %v, want ErrLimit", label, half, err)
			}
			sameStates(t, fmt.Sprintf("%s limit=%d", label, half), ref[:half], part)
		}
	}
}

// sameStates fails unless got is want element by element.
func sameStates(t *testing.T, label string, want, got []ioa.State) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d states, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("%s: state %d is %q, want %q", label, i, got[i].Key(), want[i].Key())
		}
	}
}
