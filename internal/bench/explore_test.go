package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/explore"
	"repro/internal/ioa"
)

// TestExploreSweepAgrees runs a small sweep and checks the internal
// consistency ExploreSweep itself enforces (every mode reaches the
// same state count), plus JSON round-tripping.
func TestExploreSweepAgrees(t *testing.T) {
	rows, err := ExploreSweep(ExploreConfig{Users: 2, Reps: 1, Workers: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // 3 systems × (serial-nomemo, serial, parallel@2)
		t.Fatalf("got %d rows, want 9", len(rows))
	}
	var buf bytes.Buffer
	if err := WriteSweepJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var back []ExploreRow
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rows) {
		t.Fatalf("JSON round-trip lost rows: %d vs %d", len(back), len(rows))
	}
	for _, r := range rows {
		if r.States == 0 {
			t.Errorf("%s %s: zero states", r.System, r.Mode)
		}
		if r.NS <= 0 {
			t.Errorf("%s %s: non-positive time", r.System, r.Mode)
		}
	}
}

// TestExploreSystemLevels: the three levels build and their closed
// systems explore to stable, strictly growing state-space sizes.
func TestExploreSystemLevels(t *testing.T) {
	sizes := make([]int, 0, 3)
	for level := 1; level <= 3; level++ {
		a, err := ExploreSystem(level, 2)
		if err != nil {
			t.Fatal(err)
		}
		states, err := explore.New(explore.Options{Workers: 1, Limit: explore.DefaultLimit}).Reach(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(states))
	}
	if !(sizes[0] <= sizes[1] && sizes[1] <= sizes[2]) {
		t.Fatalf("levels should not shrink in state count: %v", sizes)
	}
}

// BenchmarkReachSerialVsParallel times reachability on the closed
// level-1/2/3 arbiters in each mode. The serial-nomemo mode is the
// seed baseline (composition caches disabled); parallel runs the
// sharded engine with the memo on.
func BenchmarkReachSerialVsParallel(b *testing.B) {
	const nUsers = 3
	modes := []struct {
		name    string
		memo    bool
		workers int // 0 = sequential
	}{
		{"serial-nomemo", false, 0},
		{"serial", true, 0},
		{"parallel-2", true, 2},
		{"parallel-4", true, 4},
	}
	for level := 1; level <= 3; level++ {
		for _, m := range modes {
			b.Run(benchName(level, m.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					a, err := ExploreSystem(level, nUsers)
					if err != nil {
						b.Fatal(err)
					}
					if !m.memo {
						ioa.SetMemoDeep(a, false)
					}
					b.StartTimer()
					var states []ioa.State
					if m.workers > 0 {
						states, err = explore.New(explore.Options{Workers: m.workers}).Reach(context.Background(), a)
					} else {
						states, err = explore.New(explore.Options{Workers: 1, Limit: explore.DefaultLimit}).Reach(context.Background(), a)
					}
					if err != nil {
						b.Fatal(err)
					}
					if len(states) == 0 {
						b.Fatal("no states")
					}
					if i == 0 {
						b.ReportMetric(float64(len(states)), "states")
					}
				}
			})
		}
	}
}

func benchName(level int, mode string) string {
	return "arbiter" + string(rune('0'+level)) + "/" + mode
}
