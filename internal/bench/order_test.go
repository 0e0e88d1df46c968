package bench

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/store"
)

// TestOneVisitOrder: every engine numbers states in one order, the
// sequential BFS order. On every catalogue system at three users (its
// first orderStates states where it has more: mutex has 288 800, A₃ʳ's
// retransmissions more than a million), at workers 2, 3 and 8, on the
// arena and on a spill that flushes every kilobyte, with no
// canonicalizer and with the catalogue's, Reach returns the one-worker
// kernel's Reach slice element by element (and
// ReferenceReach's, which has no canonicalizer), the same CheckInvariant
// violation with the same witness, and the same partial result under a
// limit of half the states.
func TestOneVisitOrder(t *testing.T) {
	const orderStates = 3000
	ctx := context.Background()
	for _, sys := range Systems() {
		a, err := sys.Build(Params{Users: 3, UsersSet: true, GridBase: 4, GridDigits: 5})
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		canons := []store.Canonicalizer{nil}
		if sys.Canon != nil {
			c, err := sys.Canon(3)
			if err != nil {
				t.Fatalf("%s: %v", sys.Name, err)
			}
			canons = append(canons, c)
		}
		for _, canon := range canons {
			label := fmt.Sprintf("%s canon=%v", sys.Name, canon != nil)
			run := func(w int, spill bool, limit int) explore.Options {
				opts := explore.Options{Workers: w, Canon: canon, Limit: limit}
				if spill {
					opts.Spill = &store.SpillOptions{Dir: t.TempDir(), MemBudget: 1 << 10}
				}
				return opts
			}
			// The kernel's Reach ends in ErrLimit when the system has more
			// than orderStates states, and every other Reach must end as
			// it does.
			ref, limited := explore.New(run(1, false, orderStates)).Reach(ctx, a)
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
			refV, err := explore.New(run(1, false, 0)).CheckInvariant(ctx, a, pred)
			if err != nil || refV == nil {
				t.Fatalf("%s: one-worker check = (%v, %v), want a violation", label, refV, err)
			}
			half := len(ref) / 2
			for _, spill := range []bool{false, true} {
				for _, w := range []int{2, 3, 8} {
					at := fmt.Sprintf("%s spill=%v workers=%d", label, spill, w)
					got, err := explore.New(run(w, spill, orderStates)).Reach(ctx, a)
					if !sameEnd(err) {
						t.Fatalf("%s: %v, one worker: %v", at, err, limited)
					}
					sameStates(t, at, ref, got)
					v, err := explore.New(run(w, spill, 0)).CheckInvariant(ctx, a, pred)
					if err != nil || v == nil {
						t.Fatalf("%s: check = (%v, %v), want a violation", at, v, err)
					}
					if v.State.Key() != refV.State.Key() || v.Trace.String() != refV.Trace.String() {
						t.Fatalf("%s: violation %q with witness\n%s\nwant %q with\n%s",
							at, v.State.Key(), v.Trace, refV.State.Key(), refV.Trace)
					}
					part, err := explore.New(run(w, spill, half)).Reach(ctx, a)
					if !errors.Is(err, explore.ErrLimit) {
						t.Fatalf("%s limit=%d: err = %v, want ErrLimit", at, half, err)
					}
					sameStates(t, fmt.Sprintf("%s limit=%d", at, half), ref[:half], part)
				}
			}
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
