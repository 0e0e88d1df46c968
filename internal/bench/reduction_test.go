package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestReductionSweepSmall pins the sweep's structural guarantees on
// the quick instances: verdicts agree across modes (the sweep itself
// errors otherwise), the full rows are the baselines, and the star
// symmetry quotient is exactly n-fold — the rotation action is free,
// so every orbit has exactly n members.
func TestReductionSweepSmall(t *testing.T) {
	rows, err := reductionRows(SweepConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	full := map[string]ReductionRow{}
	for _, r := range rows {
		if !r.MutexOK {
			t.Errorf("%s n=%d %s: mutual exclusion reported violated", r.System, r.Users, r.Mode)
		}
		if r.Mode == "full" {
			if r.StateRatio != 1.0 {
				t.Errorf("%s n=%d: full-mode ratio %v, want 1", r.System, r.Users, r.StateRatio)
			}
			full[r.System+"/"+itoa(r.Users)] = r
		}
	}
	for _, r := range rows {
		base, ok := full[r.System+"/"+itoa(r.Users)]
		if !ok {
			t.Fatalf("%s n=%d: no full baseline row", r.System, r.Users)
		}
		if r.States > base.States {
			t.Errorf("%s n=%d %s: %d states exceeds full %d", r.System, r.Users, r.Mode, r.States, base.States)
		}
		if r.System == "arbiter3-star" && r.Mode == "symmetry" {
			if r.States*r.Users != base.States {
				t.Errorf("star n=%d %s: %d states, full %d: want exact %d-fold quotient",
					r.Users, r.Mode, r.States, base.States, r.Users)
			}
		}
	}
}

// TestReductionOutputs covers the table and JSON writers.
func TestReductionOutputs(t *testing.T) {
	rows := []ReductionRow{
		{System: "arbiter3-star", Users: 12, Mode: "symmetry", States: 8191,
			NS: 1e6, StateRatio: 12, Speedup: 12.4, MutexOK: true},
	}
	var tbl bytes.Buffer
	printTable(&tbl, reductionSweep.title, reductionSweep.cols, rows)
	if !strings.Contains(tbl.String(), "arbiter3-star") || !strings.Contains(tbl.String(), "12.00x") {
		t.Fatalf("table output missing expected fields:\n%s", tbl.String())
	}
	var buf bytes.Buffer
	if err := WriteSweepJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var back []ReductionRow
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0] != rows[0] {
		t.Fatalf("JSON round-trip mismatch: %+v", back)
	}
}

func itoa(n int) string {
	return string(rune('0' + n))
}
