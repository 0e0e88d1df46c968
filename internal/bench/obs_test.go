package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// obsFakeClock advances a fixed step per reading so sweep timings are
// deterministic in tests. The clock ends up inside the tracer, which
// parallel explore workers read concurrently, so the counter is
// atomic.
func obsFakeClock() func() time.Time {
	t0 := time.Unix(2000, 0)
	var n atomic.Int64
	return func() time.Time {
		return t0.Add(time.Duration(n.Add(1)-1) * time.Millisecond)
	}
}

func TestObsSweep(t *testing.T) {
	rows, err := ObsSweep(ObsConfig{
		Users: 2, Levels: []int{1}, Workers: 2, Reps: 1, Now: obsFakeClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	off, on := rows[0], rows[1]
	if off.Mode != "obs-off" || on.Mode != "obs-on" {
		t.Fatalf("row modes = %q, %q", off.Mode, on.Mode)
	}
	if off.States == 0 || off.States != on.States {
		t.Fatalf("states: off=%d on=%d, want equal and nonzero", off.States, on.States)
	}
	if on.TraceEvents == 0 {
		t.Error("obs-on row recorded no trace events")
	}
	if off.TraceEvents != 0 {
		t.Error("obs-off row recorded trace events")
	}

	var buf bytes.Buffer
	if err := WriteSweepJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var back []ObsRow
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("BENCH_obs rows do not round-trip: %v", err)
	}
	if len(back) != 2 || back[1].States != on.States {
		t.Fatalf("round-trip mismatch: %+v", back)
	}

	buf.Reset()
	PrintObs(&buf, rows)
	if !strings.Contains(buf.String(), "obs-on") {
		t.Fatalf("table missing obs-on row:\n%s", buf.String())
	}
}
