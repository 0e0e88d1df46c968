package explore_test

// PR 5 differential battery extension: the store-backed Engine must
// visit states in an order bit-identical to the seed explorer.
// ReferenceReach keeps the seed's string-keyed BFS
// verbatim as that oracle. Also pinned here: the Reach limit edge case
// (immediate return with a consistent partial order and a wrapped
// ErrLimit) and context cancellation on every Engine method.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/figures"
	"repro/internal/ioa"
	"repro/internal/testseed"
)

// assertSameOrder fails unless the two results are elementwise
// identical by key.
func assertSameOrder(t *testing.T, label string, want, got []ioa.State) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d states, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("%s: order differs at %d: %q, want %q", label, i, got[i].Key(), want[i].Key())
		}
	}
}

// bfsOrder flattens bfsLevels: the sequential BFS order every engine
// must produce.
func bfsOrder(a ioa.Automaton) []string {
	var out []string
	for _, lvl := range bfsLevels(a) {
		out = append(out, lvl...)
	}
	return out
}

// diffSystems yields the battery's systems: randomized shapes plus the
// repo's figures.
func diffSystems(t *testing.T) map[string]ioa.Automaton {
	t.Helper()
	base := testseed.Base(t)
	systems := map[string]ioa.Automaton{
		"fig21":        figures.Fig21(),
		"fig21-hidden": ioa.Hide(figures.Fig21(), ioa.NewSet(figures.Beta)),
		"fig23c":       figures.Fig23C(),
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(base + 900 + seed))
		systems[fmt.Sprintf("rand%d", seed)] = randSystem(rng, seed)
	}
	return systems
}

// TestDifferentialOrderSequential: the store-backed sequential engine
// visits states in exactly the seed explorer's order.
func TestDifferentialOrderSequential(t *testing.T) {
	ctx := context.Background()
	eng := explore.New(explore.Options{})
	for name, a := range diffSystems(t) {
		want, err := explore.ReferenceReach(a, explore.DefaultLimit)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, err := eng.Reach(ctx, a)
		if err != nil {
			t.Fatalf("%s: engine: %v", name, err)
		}
		assertSameOrder(t, name, want, got)
	}
}

// TestDifferentialOrderParallel: the oracle built level by level
// reproduces the seed BFS order, and so does the engine.
func TestDifferentialOrderParallel(t *testing.T) {
	ctx := context.Background()
	for name, a := range diffSystems(t) {
		ref, err := explore.ReferenceReach(a, explore.DefaultLimit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		levels := bfsOrder(a)
		if len(levels) != len(ref) {
			t.Fatalf("%s: level oracle has %d states, reference %d", name, len(levels), len(ref))
		}
		for i, k := range levels {
			if k != ref[i].Key() {
				t.Fatalf("%s: level oracle differs at %d: %q, reference %q", name, i, k, ref[i].Key())
			}
		}
		got, err := explore.New(explore.Options{}).Reach(ctx, a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSameOrder(t, name, ref, got)
	}
}

// chain builds a line automaton c0 →t→ c1 →t→ … →t→ c(n-1): exactly n
// reachable states discovered in index order, so limit behavior is
// fully predictable.
func chain(n int) *ioa.Table {
	sig := ioa.MustSignature(nil, nil, []ioa.Action{"t"})
	states := make([]ioa.State, n)
	for i := range states {
		states[i] = ioa.KeyState(fmt.Sprintf("c%02d", i))
	}
	var steps []ioa.Step
	for i := 0; i+1 < n; i++ {
		steps = append(steps, ioa.Step{From: states[i], Act: "t", To: states[i+1]})
	}
	classes := []ioa.Class{{Name: "tick", Actions: ioa.NewSet("t")}}
	return ioa.MustTable("chain", sig, states[:1], steps, classes)
}

// TestReachLimitEdgeCases pins the satellite fix: hitting the budget
// returns immediately with a partial order that is exactly the first
// Limit states of the unbounded order, wrapped in ErrLimit; an
// exact-fit budget (and anything larger) completes with nil error.
func TestReachLimitEdgeCases(t *testing.T) {
	ctx := context.Background()
	a := chain(9)
	full, err := explore.New(explore.Options{}).Reach(ctx, a)
	if err != nil || len(full) != 9 {
		t.Fatalf("full sweep: %d states, err %v", len(full), err)
	}
	for limit := 1; limit < 9; limit++ {
		got, err := explore.New(explore.Options{Limit: limit}).Reach(ctx, a)
		if !errors.Is(err, explore.ErrLimit) {
			t.Fatalf("limit %d: err = %v, want ErrLimit", limit, err)
		}
		if !strings.Contains(err.Error(), "chain") {
			t.Errorf("limit %d: error %q does not name the automaton", limit, err)
		}
		assertSameOrder(t, fmt.Sprintf("limit %d", limit), full[:limit], got)
	}
	// Exact fit and oversize budgets both complete cleanly: ErrLimit
	// means an unseen state remains, and here none does.
	for _, limit := range []int{9, 10, 1000} {
		got, err := explore.New(explore.Options{Limit: limit}).Reach(ctx, a)
		if err != nil {
			t.Fatalf("limit %d: err = %v, want nil (exact fit)", limit, err)
		}
		assertSameOrder(t, fmt.Sprintf("limit %d", limit), full, got)
	}
	// The random battery again, elementwise: the partial order is a
	// prefix of the unbounded sweep.
	base := testseed.Base(t)
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(base + 950 + seed))
		a := randSystem(rng, seed)
		full, err := explore.New(explore.Options{}).Reach(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		if len(full) < 3 {
			continue
		}
		limit := len(full) / 2
		got, err := explore.New(explore.Options{Limit: limit}).Reach(ctx, a)
		if !errors.Is(err, explore.ErrLimit) {
			t.Fatalf("seed %d: err = %v, want ErrLimit", seed, err)
		}
		assertSameOrder(t, fmt.Sprintf("seed %d prefix", seed), full[:limit], got)
	}
}

// TestCheckInvariantLimitStricter pins the asymmetry inherited from
// the seed: CheckInvariant errors once its node store is full even on
// an exact fit, because witnesses past the budget could not be built.
func TestCheckInvariantLimitStricter(t *testing.T) {
	ctx := context.Background()
	a := chain(9)
	taut := func(ioa.State) bool { return true }
	if _, err := explore.New(explore.Options{Limit: 9}).CheckInvariant(ctx, a, taut); !errors.Is(err, explore.ErrLimit) {
		t.Fatalf("exact-fit CheckInvariant err = %v, want ErrLimit", err)
	}
	if _, err := explore.New(explore.Options{Limit: 10}).CheckInvariant(ctx, a, taut); err != nil {
		t.Fatalf("roomy CheckInvariant err = %v, want nil", err)
	}
}

// TestEngineContextCancellation: a canceled context aborts every
// Engine method with context.Canceled.
func TestEngineContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := figures.Fig21()
	eng := explore.New(explore.Options{})
	if _, err := eng.Reach(ctx, a); !errors.Is(err, context.Canceled) {
		t.Errorf("Reach err = %v, want context.Canceled", err)
	}
	if _, err := eng.CheckInvariant(ctx, a, func(ioa.State) bool { return true }); !errors.Is(err, context.Canceled) {
		t.Errorf("CheckInvariant err = %v, want context.Canceled", err)
	}
	if _, err := eng.Behaviors(ctx, a, 8); !errors.Is(err, context.Canceled) {
		t.Errorf("Behaviors err = %v, want context.Canceled", err)
	}
	if _, err := eng.Schedules(ctx, a, 8); !errors.Is(err, context.Canceled) {
		t.Errorf("Schedules err = %v, want context.Canceled", err)
	}
	if _, err := eng.Execs(ctx, a, 8); !errors.Is(err, context.Canceled) {
		t.Errorf("Execs err = %v, want context.Canceled", err)
	}
	if _, err := eng.FindLasso(ctx, a, func(ioa.Action) bool { return true }, false); !errors.Is(err, context.Canceled) {
		t.Errorf("FindLasso err = %v, want context.Canceled", err)
	}
	if err := eng.WriteDOT(ctx, io.Discard, a); !errors.Is(err, context.Canceled) {
		t.Errorf("WriteDOT err = %v, want context.Canceled", err)
	}
	// A nil context is normalized, not dereferenced.
	if _, err := eng.Reach(nil, a); err != nil { //lint:ignore SA1012 nil-context normalization is part of the API contract
		t.Errorf("nil-context Reach err = %v", err)
	}
}
