package bench

import (
	"testing"

	"repro/internal/graph"
)

func TestTheorem50BoundHolds(t *testing.T) {
	rows, err := Theorem50([]int{2, 4, 8, 16}, 1, graph.BinaryTree, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.WithinB {
			t.Errorf("n=%d: max %.1f exceeds 2bd = %.1f", r.N, r.Max, r.Bound)
		}
		if r.First <= 0 {
			t.Errorf("n=%d: first response %.1f", r.N, r.First)
		}
	}
	// The first response grows with the diameter (shape check).
	if rows[len(rows)-1].First <= rows[0].First {
		t.Error("light-load first response should grow with tree size")
	}
}

func TestTheorem50LineNearTight(t *testing.T) {
	// On a line with the holder at the far end, the lazy adversary
	// makes the first response close to the 2bd bound: request travels
	// ≈ dist hops, grant travels back ≈ dist hops, each costing b.
	rows, err := Theorem50([]int{4, 8}, 1, func(n int) (*graph.Tree, error) {
		return graph.Line(n)
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.WithinB {
			t.Errorf("n=%d: bound violated", r.N)
		}
		if r.First < r.Bound/2-2 {
			t.Errorf("n=%d: first %.1f far below bound %.1f; adversary too weak", r.N, r.First, r.Bound)
		}
	}
}

func TestTheorem52BoundHolds(t *testing.T) {
	rows, err := Theorem52([]int{2, 4, 8}, 1, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for _, r := range rows {
		if !r.WithinB {
			t.Errorf("n=%d: max %.1f exceeds 3be−b = %.1f", r.N, r.Max, r.Bound)
		}
		if r.Max <= prev {
			t.Errorf("n=%d: heavy-load response should grow with e", r.N)
		}
		prev = r.Max
	}
}

func TestCombinedMessagesReduceTraffic(t *testing.T) {
	plain, err := Theorem52([]int{8}, 1, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := Theorem52([]int{8}, 1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !combined[0].WithinB {
		t.Errorf("combined variant exceeds its 2be bound: %.1f > %.1f", combined[0].Max, combined[0].Bound)
	}
	// The paper's 3-vs-2 messages-per-edge claim: the combined variant
	// moves ≈ 2/3 of the messages under heavy load.
	ratio := combined[0].MsgsPerGrant / plain[0].MsgsPerGrant
	if ratio > 0.8 || ratio < 0.5 {
		t.Errorf("combined/plain message ratio = %.2f, want ≈ 2/3", ratio)
	}
}

func TestComparisonShape(t *testing.T) {
	rows, err := Comparison([]int{8, 32}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	small, large := rows[0], rows[1]
	// Light load: Schönhage ~2 log n beats round-robin ~n at n=32.
	if large.SchonLight >= large.RRLight {
		t.Errorf("n=32 light: Schönhage %.0f should beat round-robin %.0f",
			large.SchonLight, large.RRLight)
	}
	// Heavy load: Schönhage Θ(n) beats tournament Θ(n log n) at n=32.
	if large.SchonHeavy >= large.TournHeavy {
		t.Errorf("n=32 heavy: Schönhage %.0f should beat tournament %.0f",
			large.SchonHeavy, large.TournHeavy)
	}
	// Growth shapes: tournament heavy grows superlinearly vs n.
	if large.TournHeavy/small.TournHeavy < 4 {
		t.Errorf("tournament heavy growth 8→32 = %.1fx, want ≳ linear×log",
			large.TournHeavy/small.TournHeavy)
	}
}

func TestRunReproducibleBySeed(t *testing.T) {
	tr, err := graph.BinaryTree(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Tree: tr, Holder: tr.NodesOf(graph.Arbiter)[0], Load: Heavy, B: 1, Grants: 10, Seed: 5}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Max != r2.Stats.Max || r1.Steps != r2.Steps {
		t.Error("same seed must reproduce the same run")
	}
}

func TestFarthestHolderFrom(t *testing.T) {
	tr, err := graph.Line(5)
	if err != nil {
		t.Fatal(err)
	}
	u0 := tr.NodesOf(graph.User)[0] // attached to a0
	h := FarthestHolderFrom(tr, u0)
	if tr.Node(h).Name != "a4" {
		t.Errorf("farthest holder = %s, want a4", tr.Node(h).Name)
	}
}

func TestRunRingShape(t *testing.T) {
	// Token ring: Θ(n) response under both loads.
	light8, err := RunRing(8, Light, 1, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	light32, err := RunRing(32, Light, 1, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if light32.Stats.Max < 2*light8.Stats.Max {
		t.Errorf("ring light response must grow ~linearly: n=8→%.0f, n=32→%.0f",
			light8.Stats.Max, light32.Stats.Max)
	}
	heavy8, err := RunRing(8, Heavy, 1, 48, 1)
	if err != nil {
		t.Fatal(err)
	}
	if heavy8.Stats.Max > 12*8 {
		t.Errorf("ring heavy response %.0f not Θ(n) at n=8", heavy8.Stats.Max)
	}
	// Every run is deterministic per seed.
	again, err := RunRing(8, Heavy, 1, 48, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.Max != heavy8.Stats.Max {
		t.Error("ring run not reproducible by seed")
	}
}

func TestTheorem50StarConstantDiameter(t *testing.T) {
	// On stars the diameter is 2 regardless of n: the 2bd bound makes
	// light-load response constant even as users multiply.
	rows, err := Theorem50([]int{4, 16, 64}, 1, graph.Star, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.D != 2 {
			t.Fatalf("n=%d: star diameter %d", r.N, r.D)
		}
		if !r.WithinB {
			t.Errorf("n=%d: bound violated", r.N)
		}
	}
	if rows[2].Max > rows[0].Max+1e-9 {
		t.Errorf("star light-load response must not grow with n: %v vs %v",
			rows[2].Max, rows[0].Max)
	}
}
