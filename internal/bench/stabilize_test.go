package bench

import (
	"strconv"
	"testing"
)

// TestStabilizeSweep runs the sweep at its smallest sizes and pins
// the verdicts: Dijkstra stabilizes on both envelopes (with the spot
// bound no worse than the full-envelope bound), the K=n-2 boundary
// row fails convergence while staying closed, and the LeLann crash
// row is the certified-unstable negative control. TestSweepRegistry
// covers the table and the JSON.
func TestStabilizeSweep(t *testing.T) {
	rows, err := stabilizeRows(SweepConfig{Sizes: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// n=3: full + spot; n=4: full + spot + K=2 negative; lelann.
	if len(rows) != 6 {
		t.Fatalf("rows: got %d, want 6", len(rows))
	}
	byCell := map[string]StabilizeRow{}
	for _, r := range rows {
		key := r.System + "/" + strconv.Itoa(r.N) + "/" + strconv.Itoa(r.K) + "/" + r.Envelope
		byCell[key] = r
		if r.NS <= 0 {
			t.Errorf("%s: non-positive ns %d", key, r.NS)
		}
	}

	full3 := byCell["dijkstra/3/3/all-corruptions"]
	if !full3.Stabilizing || !full3.Bounded || full3.Bound != 2 {
		t.Fatalf("dijkstra n=3 full: %+v", full3)
	}
	if full3.EnvelopeStates != 27 || full3.States != 27 {
		t.Fatalf("dijkstra n=3 full envelope/states: %+v", full3)
	}
	spot3 := byCell["dijkstra/3/3/single-corruption"]
	if !spot3.Stabilizing || !spot3.Bounded {
		t.Fatalf("dijkstra n=3 spot: %+v", spot3)
	}
	if spot3.Bound > full3.Bound {
		t.Fatalf("spot bound %d exceeds full bound %d", spot3.Bound, full3.Bound)
	}
	full4 := byCell["dijkstra/4/4/all-corruptions"]
	if !full4.Stabilizing || full4.Bound != 13 || full4.EnvelopeStates != 256 {
		t.Fatalf("dijkstra n=4 full: %+v", full4)
	}

	neg := byCell["dijkstra/4/2/all-corruptions"]
	if neg.Stabilizing || neg.Converges || !neg.Closed {
		t.Fatalf("dijkstra n=4 K=2 negative: %+v", neg)
	}
	lelann := byCell["lelann/3/0/crash(reset)"]
	if lelann.Stabilizing || lelann.Converges || !lelann.Closed {
		t.Fatalf("lelann negative control: %+v", lelann)
	}
	if lelann.EnvelopeStates == 0 {
		t.Fatalf("lelann envelope empty: %+v", lelann)
	}
}
