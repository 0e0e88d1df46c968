package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/store"
)

// TestReachExploresOnce pins the one exploration per in-RAM -reach:
// the engine's admitted-state counter must equal the printed count,
// not twice it (the quiescent states are counted from the states in
// hand, not from a second walk).
func TestReachExploresOnce(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	cfg := config{
		system: "arbiter3", nUsers: 3, reach: true, faults: "none",
		explore: explore.Options{}, metricsOut: metrics,
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	var printed int64
	if _, err := fmt.Sscanf(out.String(), "arbiter3: %d reachable states", &printed); err != nil || printed != 139 {
		t.Fatalf("printed %d states (%v) in %q, want 139", printed, err, out.String())
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["explore.states_admitted"]; got != printed {
		t.Errorf("explore.states_admitted = %d, printed %d states: -reach explored %.1f times",
			got, printed, float64(got)/float64(printed))
	}
}

// TestReachQuotesFirstQuiescentKey: state keys may be raw bytes (grid
// keys are digit bytes), so the report prints the first quiescent
// state's key quoted.
func TestReachQuotesFirstQuiescentKey(t *testing.T) {
	cfg := smoke("grid")
	cfg.gridK, cfg.reach = 2, true
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	want := "grid-3x2: 9 reachable states\n1 quiescent states (nothing locally controlled enabled); first: \"\\x02\\x02\"\n"
	if out.String() != want {
		t.Errorf("report %q, want %q", out.String(), want)
	}
}

// modeFlags sets a mode's selecting flag on a config, by the flag the
// mode table names; a row the map lacks fails TestModeMatrix.
var modeFlags = map[string]func(*config){
	"-dist-join":   func(c *config) { c.distJoin = "127.0.0.1:1" },
	"-dist-listen": func(c *config) { c.distListen = "127.0.0.1:0" },
	"-stabilize":   func(c *config) { c.stabilize = true },
	"-induct":      func(c *config) { c.induct = true },
	"-dot":         func(c *config) { c.dotOut = true },
	"-reach":       func(c *config) { c.reach = true },
	"":             func(*config) {},
}

// smoke is the matrix's base invocation: -users 2 -grid-base 3
// -grid-digits 3 -steps 20 -limit 2000.
func smoke(system string) config {
	return config{
		system: system, nUsers: 2, usersSet: true, gridM: 3, gridK: 3,
		steps: 20, policy: "rr", faults: "none", faultSd: 1,
		explore: explore.Options{Limit: 2000},
	}
}

// TestModeMatrix walks every catalogue system × every single-process
// mode × {plain, -faults, -symmetry, -spill-dir} at smoke size. What must
// happen is read off the two tables alone: a combination the mode row
// and the catalogue entry both take runs (a truncation or a printed
// negative verdict is a run), and any other is rejected before
// anything is printed, in a text naming the offending flag — never a
// panic, never a flag silently ignored. The one refusal the tables do
// not hold is the census's: -reach -spill-dir on a system ioa.Decoder
// cannot rebuild is refused by the system's name.
func TestModeMatrix(t *testing.T) {
	// A refused -spill-dir must not even be created.
	spillDir := filepath.Join(t.TempDir(), "spill")
	cross := []struct {
		flag  string
		apply func(*config)
		takes func(*mode, bench.System) bool
	}{
		{"", func(*config) {}, func(*mode, bench.System) bool { return true }},
		{"-faults", func(c *config) { c.faults = "drop=0.1" },
			func(m *mode, s bench.System) bool { return m.faults == "" && s.Faulty }},
		{"-symmetry", func(c *config) { c.symmetry = true },
			func(m *mode, s bench.System) bool { return m.symmetry == "" && m.canon != nil && m.canon(s) != nil }},
		{"-spill-dir", func(c *config) { c.explore.Spill = &store.SpillOptions{Dir: spillDir, MemBudget: 1 << 20} },
			func(m *mode, s bench.System) bool { return m.spill == "" }},
	}
	for _, sys := range bench.Systems() {
		for i := range modes {
			m := &modes[i]
			if m.sharded {
				continue // TestModeRejections
			}
			for _, x := range cross {
				cfg := smoke(sys.Name)
				modeFlags[m.flag](&cfg)
				x.apply(&cfg)
				if got := selectMode(&cfg); got != m {
					t.Fatalf("flag %q selects mode %s, want %s", m.flag, got.name, m.name)
				}
				want := "" // the flag a rejection must name
				if m.supports != nil && !m.supports(sys) {
					want = m.flag
				} else if !x.takes(m, sys) {
					want = x.flag
				} else if x.flag == "-spill-dir" && m.name == "reach" {
					want = undecodable(t, sys)
				}
				var out bytes.Buffer
				err := run(cfg, &out)
				name := fmt.Sprintf("%s %s %s", sys.Name, m.name, x.flag)
				switch {
				case want == "" && err != nil && !errors.Is(err, explore.ErrLimit) && out.Len() == 0:
					t.Errorf("%s: both tables take it, yet it fails with nothing printed: %v", name, err)
				case want != "" && err == nil:
					t.Errorf("%s: ran, although the tables refuse %s", name, want)
				case want != "" && (!strings.Contains(err.Error(), want) || out.Len() > 0):
					t.Errorf("%s: rejection %q (after printing %d bytes) should name %s and precede all output",
						name, err, out.Len(), want)
				}
				if _, serr := os.Stat(spillDir); x.flag == "-spill-dir" && want != "" && serr == nil {
					t.Fatalf("%s: refused -spill-dir, yet created %s", name, spillDir)
				}
				if err := os.RemoveAll(spillDir); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// undecodable is the name of sys at smoke size when ioa.Decoder cannot
// rebuild it, so an external census refuses it, and "" otherwise.
func undecodable(t *testing.T, sys bench.System) string {
	t.Helper()
	a, err := sys.Build(bench.Params{Users: 2, UsersSet: true, GridBase: 3, GridDigits: 3})
	if err != nil {
		t.Fatalf("%s: %v", sys.Name, err)
	}
	if ioa.Decoder(a) != nil {
		return ""
	}
	return a.Name()
}

// TestModeRejections covers the mode-level rules of the table: a
// coordinator needs -reach, and two mode flags at once are an error rather than a silent precedence.
// Every case is rejected before a listener is bound or a peer dialed.
func TestModeRejections(t *testing.T) {
	for _, c := range []struct {
		flags []string // modeFlags keys
		names []string // what the rejection must name
	}{
		{flags: []string{"-dist-listen"}, names: []string{"-dist-listen", "-reach"}},
		{flags: []string{"-dist-join", "-dist-listen", "-reach"}, names: []string{"-dist-join", "-dist-listen"}},
		{flags: []string{"-dist-listen", "-reach", "-stabilize"}, names: []string{"-dist-listen", "-stabilize"}},
		{flags: []string{"-stabilize", "-induct"}, names: []string{"-stabilize", "-induct"}},
		{flags: []string{"-stabilize", "-reach"}, names: []string{"-stabilize", "-reach"}},
		{flags: []string{"-induct", "-dot"}, names: []string{"-induct", "-dot"}},
		{flags: []string{"-dot", "-reach"}, names: []string{"-dot", "-reach"}},
	} {
		cfg := smoke("dijkstra")
		for _, f := range c.flags {
			modeFlags[f](&cfg)
		}
		var out bytes.Buffer
		err := run(cfg, &out)
		if err == nil || out.Len() > 0 {
			t.Errorf("%v: err = %v after %d bytes of output, want a rejection", c.flags, err, out.Len())
			continue
		}
		for _, n := range c.names {
			if !strings.Contains(err.Error(), n) {
				t.Errorf("%v: rejection %q does not name %s", c.flags, err, n)
			}
		}
	}
}

// TestCatalogueDocs guards the prose copies of the catalogue against
// drift: the usage line of the package comment, the README's catalogue
// table (one row per system, its hook columns read off the entry), and
// the unknown-system error all list the systems in catalogue order.
func TestCatalogueDocs(t *testing.T) {
	names := bench.SystemNames(nil)
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	if usage := "//\tioasim -system " + strings.Join(names, "|") + "\n"; !strings.Contains(string(src), usage) {
		t.Errorf("package comment lacks the usage line %q", usage)
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	mark := func(has bool) string {
		if has {
			return "✓"
		}
		return "–"
	}
	for _, s := range bench.Systems() {
		row := fmt.Sprintf("| `%s` | %s | %s | %s | %s |", s.Name, mark(s.Faulty), mark(s.Canon != nil),
			mark(s.Induct != nil), mark(s.Stabilize != nil))
		if !strings.Contains(string(readme), row) {
			t.Errorf("README.md catalogue table lacks the row %q", row)
		}
	}
	err = run(smoke("?"), new(bytes.Buffer))
	if list := fmt.Sprintf("(registered: %v)", names); err == nil || !strings.Contains(err.Error(), list) {
		t.Errorf("unknown-system error %v does not list %s", err, list)
	}
}
