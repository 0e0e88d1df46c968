package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/explore"
	"repro/internal/ioa"
)

// TestStoreSweepAgrees runs a small sweep and checks the consistency
// StoreSweep itself enforces (every mode reaches the reference state
// count), the footprint fields, and JSON round-tripping.
func TestStoreSweepAgrees(t *testing.T) {
	rows, err := StoreSweep(StoreConfig{Users: 2, Reps: 1, Workers: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // 3 systems × (reference, interned, interned-parallel@2)
		t.Fatalf("got %d rows, want 9", len(rows))
	}
	var buf bytes.Buffer
	if err := WriteSweepJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var back []StoreRow
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
		if r.Mode != "reference" && (r.ArenaBytes <= 0 || r.BytesPerState <= 0) {
			t.Errorf("%s %s: missing footprint (arena=%d, B/state=%d)",
				r.System, r.Mode, r.ArenaBytes, r.BytesPerState)
		}
	}
}

// BenchmarkStoreReferenceVsInterned times the seed string-keyed
// explorer against the interned store-backed engine on the closed
// arbiters — the CI sanity benchmark for the store path (run at
// -benchtime=1x under -race alongside BenchmarkReachSerialVsParallel).
func BenchmarkStoreReferenceVsInterned(b *testing.B) {
	const nUsers = 3
	modes := []struct {
		name    string
		workers int // 0 = reference explorer
	}{
		{"reference", 0},
		{"interned", 1},
		{"interned-parallel-4", 4},
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
					b.StartTimer()
					var states []ioa.State
					if m.workers > 0 {
						eng := explore.New(explore.Options{Workers: m.workers})
						states, err = eng.Reach(context.Background(), a)
					} else {
						states, err = explore.ReferenceReach(a, explore.DefaultLimit)
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
