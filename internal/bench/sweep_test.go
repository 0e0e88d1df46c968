package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
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
	if len(Sweeps()) != 8 {
		t.Errorf("%d sweeps registered, want 8", len(Sweeps()))
	}
	for _, sw := range Sweeps() {
		t.Run(sw.Name, func(t *testing.T) {
			if sw.Artifact != "BENCH_"+sw.Name+".json" {
				t.Fatalf("registry entry incomplete: %+v", sw)
			}
			if found, err := FindSweep(sw.Name); err != nil || found.Name != sw.Name {
				t.Fatalf("FindSweep(%q) = %q, %v", sw.Name, found.Name, err)
			}
			var table bytes.Buffer
			rows, n, err := sw.Run(SweepConfig{Quick: true, Sizes: 4, B: 1, Reps: 1, Out: &table})
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
			if err := sw.Validate(js.Bytes()); err != nil {
				t.Errorf("fresh rows do not validate: %v\n%s", err, js.String())
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
		return len(failures(stab.Validate([]byte(data))))
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
		if err := stab.Validate([]byte(bad)); err == nil || !strings.HasPrefix(err.Error(), "BENCH_stabilize.json: ") {
			t.Errorf("Validate(%s) = %v; want the file refused as not stabilize rows", bad, err)
		}
	}
}

// failures splits the error of Validate into its lines, one per failed
// row condition.
func failures(err error) []string {
	if err == nil {
		return nil
	}
	return strings.Split(err.Error(), "\n")
}

// TestValidateTrajectoriesCommitted holds the repository's committed
// BENCH files to the row conditions: every verdict internally
// consistent and the negative controls present.
func TestValidateTrajectoriesCommitted(t *testing.T) {
	if err := ValidateTrajectories("../.."); err != nil {
		t.Errorf("committed artifacts:\n%v", err)
	}
}

// committed reads the artifact of a sweep from the repository root.
func committed(t *testing.T, sw Sweep) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("../..", sw.Artifact))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestExactSweepsRegenerate runs every exact sweep at full size under
// arbiterbench's flag defaults and holds the rows to the committed
// artifact byte for byte: these files are evidence only as long as the
// tool still produces them. (CI repeats this through the CLI.)
func TestExactSweepsRegenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("five full-size sweeps, about 3 s")
	}
	exact := 0
	for _, sw := range Sweeps() {
		if !sw.Exact {
			continue
		}
		exact++
		t.Run(sw.Name, func(t *testing.T) {
			rows, _, err := sw.Run(SweepConfig{B: 1, Seed: 1, Max: 64, RecoverWithin: 60, Out: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			var js bytes.Buffer
			if err := WriteSweepJSON(&js, rows); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(js.Bytes(), committed(t, sw)) {
				t.Errorf("%s no longer regenerates; if the change is meant, run\n  go run ./cmd/arbiterbench -sweep %s -sweep-out %s",
					sw.Artifact, sw.Name, sw.Artifact)
			}
		})
	}
	if exact != 5 {
		t.Errorf("%d exact sweeps registered, want theorem50, theorem52, comparison, levels, chaos", exact)
	}
}

// artifactRows decodes the committed artifact of a sweep.
func artifactRows[R any](t *testing.T, d sweepOf[R]) []R {
	t.Helper()
	var rows []R
	if err := json.Unmarshal(committed(t, d.sweep()), &rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestExactSweepPins holds the committed §3.4 and cross-level rows to
// the numbers E1–E4 and E13 reported before the tables became sweeps;
// with TestExactSweepsRegenerate that pins the producers.
func TestExactSweepPins(t *testing.T) {
	theorem := func(d sweepOf[Row], lead string, n int) Row {
		t.Helper()
		for _, r := range artifactRows(t, d) {
			if r.Variant == lead && r.N == n {
				return r
			}
		}
		t.Fatalf("%s: no %s row at n=%d", d.name, lead, n)
		return Row{}
	}
	for _, c := range []struct {
		d          sweepOf[Row]
		lead       string
		max, bound float64
	}{
		{theorem50Sweep, "binary", 21, 24},
		{theorem50Sweep, "line", 127, 130},
		{theorem52Sweep, "plain", 251, 377},
		{theorem52Sweep, "combined", 251, 252},
	} {
		if r := theorem(c.d, c.lead, 64); r.Max != c.max || r.Bound != c.bound || !r.WithinB {
			t.Errorf("%s %s n=64: max %v, bound %v, within %t; want %v ≤ %v", c.d.name, c.lead, r.Max, r.Bound, r.WithinB, c.max, c.bound)
		}
	}
	if r := theorem(theorem52Sweep, "combined", 64); tenths(r.MsgsPerGrant) != "2.6" {
		t.Errorf("combined n=64: %s msgs/grant, want 2.6", tenths(r.MsgsPerGrant))
	}
	cmp := artifactRows(t, comparisonSweep)
	if last, want := cmp[len(cmp)-1], (CompareRow{64, 21, 251, 64, 190, 18, 894, 64, 424}); last != want {
		t.Errorf("comparison n=64: %+v, want %+v", last, want)
	}
	lv := artifactRows(t, levelsSweep)
	if last := lv[len(lv)-1]; last.N != 16 || last.A2Max != 59 || last.A3Max != 87 || last.BoundAug != 131 || !last.Within {
		t.Errorf("levels n=16: %+v, want A2 59, A3 87 ≤ 131", last)
	}
	if n := len(artifactRows(t, chaosSweep)); n != 36 {
		t.Errorf("chaos artifact holds %d cells, want 6 profiles × 3 seeds × 2 systems", n)
	}
}

// failingKeys edits the committed rows of a sweep and returns the keys
// of the rows Validate then refuses.
func failingKeys[R any](t *testing.T, d sweepOf[R], edit func([]R) []R) []string {
	t.Helper()
	data, err := json.Marshal(edit(artifactRows(t, d)))
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, line := range failures(d.sweep().Validate(data)) {
		key, _, ok := strings.Cut(strings.TrimPrefix(line, d.name+" "), ": ")
		if !ok || key == line {
			t.Fatalf("Validate: %q is not \"%s <key>: <fault>\"", line, d.name)
		}
		keys = append(keys, key)
	}
	return keys
}

// TestExactSweepsRejectForgedRows is the must-fail arm of the new row
// conditions: each forgery of a committed file is refused, and by the
// key of the forged row only.
func TestExactSweepsRejectForgedRows(t *testing.T) {
	cell := func(faults string, seed int64, hardened bool, forge func(*ChaosRow)) func([]ChaosRow) []ChaosRow {
		return func(rows []ChaosRow) []ChaosRow {
			for i := range rows {
				if r := &rows[i]; r.Profile.String() == faults && r.Seed == seed && r.Hardened == hardened {
					forge(r)
				}
			}
			return rows
		}
	}
	for _, c := range []struct {
		name string
		got  []string
		want string
	}{
		{"untouched theorem50", failingKeys(t, theorem50Sweep, func(rows []Row) []Row { return rows }), ""},
		{"untouched chaos", failingKeys(t, chaosSweep, func(rows []ChaosRow) []ChaosRow { return rows }), ""},
		{"max raised above bound", failingKeys(t, theorem50Sweep, func(rows []Row) []Row {
			rows[5].Max = rows[5].Bound + 1
			return rows
		}), "binary/n64"},
		{"verdict flipped", failingKeys(t, theorem52Sweep, func(rows []Row) []Row {
			rows[6].WithinB = false
			return rows
		}), "combined/n2"},
		{"A3 over its bound", failingKeys(t, levelsSweep, func(rows []DistVsGraphRow) []DistVsGraphRow {
			rows[3].A3Max = 132
			return rows
		}), "n16"},
		{"an arbiter that served nothing", failingKeys(t, comparisonSweep, func(rows []CompareRow) []CompareRow {
			rows[0].RingHeavy = 0
			return rows
		}), "n2"},
		{"fault-free cell not recovered", failingKeys(t, chaosSweep,
			cell("none", 2, true, func(r *ChaosRow) { r.Recovered = false })), "none/seed2/A3r"},
		{"fault-free cell out of the window", failingKeys(t, chaosSweep,
			cell("none", 1, false, func(r *ChaosRow) { r.MaxServiceGap, r.Recovered = 61, false })), "none/seed1/A3"},
		{"hardened cell starved", failingKeys(t, chaosSweep,
			cell("drop=0.3", 5, true, func(r *ChaosRow) { r.Starved = true })), "drop=0.3/seed5/A3r"},
		{"h1 without h2", failingKeys(t, chaosSweep,
			cell("dup=0.15", 1, false, func(r *ChaosRow) { r.RefinesA1, r.MaxPending = true, 0 })), "dup=0.15/seed1/A3"},
		{"no negative control", failingKeys(t, chaosSweep, func(rows []ChaosRow) []ChaosRow {
			return slices.DeleteFunc(rows, chaosSweep.control)
		}), "(sweep)"},
	} {
		if want := strings.Fields(c.want); !slices.Equal(c.got, want) {
			t.Errorf("%s: failing checks %q, want %q", c.name, c.got, want)
		}
	}
	for _, sw := range Sweeps() {
		if !sw.Exact {
			continue
		}
		forged := bytes.Replace(committed(t, sw), []byte("{"), []byte(`{"wall_ns": 1,`), 1)
		if err := sw.Validate(forged); err == nil || !strings.Contains(err.Error(), "wall_ns") {
			t.Errorf("%s: a file with an unknown field: %v", sw.Name, err)
		}
	}
}
