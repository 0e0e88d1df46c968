package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestSweepRegistry runs every registered sweep under Quick through
// the path the CLI takes — Run, then WriteSweepJSON — and holds the
// fresh rows to what ValidateTrajectories holds the committed files
// to: they decode into the sweep's row type, every row's verdicts are
// consistent, and a sweep with a negative control still has one.
func TestSweepRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("the induct sweep covers multi-hundred-thousand-state domains")
	}
	for _, sw := range Sweeps() {
		t.Run(sw.Name, func(t *testing.T) {
			if sw.Artifact != "BENCH_"+sw.Name+".json" || sw.Description == "" {
				t.Fatalf("registry entry incomplete: %+v", sw)
			}
			if found, err := FindSweep(sw.Name); err != nil || found.Name != sw.Name {
				t.Fatalf("FindSweep(%q) = %q, %v", sw.Name, found.Name, err)
			}
			var table bytes.Buffer
			rows, n, err := sw.Run(SweepConfig{Quick: true, Reps: 1, Workers: 1, Out: &table})
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Fatal("no rows")
			}
			// Title, underline, headings, one line per row, blank line.
			if got := strings.Count(table.String(), "\n"); got != n+4 {
				t.Errorf("table has %d lines for %d rows:\n%s", got, n, table.String())
			}
			var js bytes.Buffer
			if err := WriteSweepJSON(&js, rows); err != nil {
				t.Fatal(err)
			}
			checks, err := sw.Validate(js.Bytes())
			if err != nil {
				t.Fatalf("rows do not round-trip into the row type: %v\n%s", err, js.String())
			}
			if len(checks) < n {
				t.Fatalf("%d checks for %d rows", len(checks), n)
			}
			for _, c := range checks {
				if !c.OK {
					t.Errorf("%s %s: %s", c.File, c.Key, c.Detail)
				}
			}
		})
	}
	_, err := FindSweep("no-such-sweep")
	if err == nil {
		t.Fatal("unknown sweep resolved")
	}
	for _, sw := range Sweeps() {
		if !strings.Contains(err.Error(), sw.Name) {
			t.Errorf("unknown-sweep error %q does not list %q", err, sw.Name)
		}
	}
}

// TestValidateRejects is the must-fail arm of Validate: rows whose
// verdicts contradict each other, a sweep that lost its negative
// control, a key the row type does not have, and an empty file.
func TestValidateRejects(t *testing.T) {
	stab, err := FindSweep("stabilize")
	if err != nil {
		t.Fatal(err)
	}
	failing := func(data string) int {
		t.Helper()
		checks, err := stab.Validate([]byte(data))
		if err != nil {
			t.Fatalf("Validate(%s): %v", data, err)
		}
		n := 0
		for _, c := range checks {
			if !c.OK {
				n++
			}
		}
		return n
	}
	good := `{"system":"dijkstra","n":3,"envelope":"e","stabilizing":true,"closed":true,"converges":true}`
	control := `{"system":"lelann","n":3,"envelope":"c","stabilizing":false,"closed":true,"converges":false}`
	if n := failing("[" + good + "," + control + "]"); n != 0 {
		t.Errorf("consistent rows with a control: %d failing checks", n)
	}
	if n := failing("[" + good + "]"); n != 1 {
		t.Errorf("missing negative control: %d failing checks, want 1", n)
	}
	contradictory := `{"system":"x","n":3,"envelope":"e","stabilizing":true,"closed":true,"converges":false}`
	if n := failing("[" + contradictory + "," + control + "]"); n != 1 {
		t.Errorf("stabilizing without convergence: %d failing checks, want 1", n)
	}
	for _, bad := range []string{`[]`, `[{"system":"x","wall_ns":1}]`, `{`} {
		if _, err := stab.Validate([]byte(bad)); err == nil {
			t.Errorf("Validate(%s) accepted a file that is not stabilize rows", bad)
		}
	}
}

// TestValidateTrajectoriesCommitted holds the repository's committed
// BENCH files to the row conditions: every verdict internally
// consistent and the negative controls present.
func TestValidateTrajectoriesCommitted(t *testing.T) {
	checks, err := ValidateTrajectories("../..")
	if err != nil {
		t.Fatalf("ValidateTrajectories: %v", err)
	}
	if len(checks) == 0 {
		t.Fatal("no structural checks produced")
	}
	for _, c := range checks {
		if !c.OK {
			t.Errorf("committed %s %s: %s", c.File, c.Key, c.Detail)
		}
	}
}
