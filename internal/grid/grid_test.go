package grid

import (
	"context"
	"testing"

	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/store"
)

func TestGridClosedForms(t *testing.T) {
	g, err := New(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.States(); got != 27 {
		t.Fatalf("States() = %d, want 27", got)
	}
	if got := g.Depth(); got != 6 {
		t.Fatalf("Depth() = %d, want 6", got)
	}
	if err := ioa.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestGridReachMatchesClosedForm(t *testing.T) {
	ctx := context.Background()
	for _, shape := range []struct{ m, k int }{{2, 4}, {3, 3}, {4, 2}, {5, 1}} {
		g, err := New(shape.m, shape.k)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := explore.ReferenceReach(g, explore.DefaultLimit)
		if err != nil {
			t.Fatalf("%s: reference: %v", g.Name(), err)
		}
		if int64(len(ref)) != g.States() {
			t.Fatalf("%s: reference found %d states, closed form %d", g.Name(), len(ref), g.States())
		}
		got, err := explore.New(explore.Options{}).Reach(ctx, g)
		if err != nil {
			t.Fatalf("%s: engine: %v", g.Name(), err)
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: engine found %d states, want %d", g.Name(), len(got), len(ref))
		}
	}
}

func TestGridCensusExternal(t *testing.T) {
	ctx := context.Background()
	g, err := New(4, 4) // 256 states, depth 12
	if err != nil {
		t.Fatal(err)
	}
	sum, err := explore.New(explore.Options{
		Spill: &store.SpillOptions{Dir: t.TempDir(), MemBudget: 128},
	}).Census(ctx, g, nil, nil)
	if err != nil {
		t.Fatalf("census: %v", err)
	}
	if sum.States != g.States() {
		t.Fatalf("census States = %d, want %d", sum.States, g.States())
	}
	if sum.Depth != g.Depth() {
		t.Fatalf("census Depth = %d, want %d", sum.Depth, g.Depth())
	}
	if sum.Deadlocks != 1 {
		t.Fatalf("census Deadlocks = %d, want 1 (the all-max vector)", sum.Deadlocks)
	}
}

func TestGridDecodeRejectsBadEncodings(t *testing.T) {
	g, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Decode([]byte{0}); err == nil {
		t.Fatal("short encoding accepted")
	}
	if _, err := g.Decode([]byte{0, 9}); err == nil {
		t.Fatal("out-of-range digit accepted")
	}
	s, err := g.Decode([]byte{1, 2})
	if err != nil {
		t.Fatalf("valid encoding rejected: %v", err)
	}
	if s.Key() != string([]byte{1, 2}) {
		t.Fatalf("decode round-trip broke the key")
	}
}
