package bench

// The sweeps: every table arbiterbench prints is one sweepOf value —
// how its rows are produced, how a row prints, and what must hold of a
// row for the verdict it records to follow from its own numbers. One
// configuration, one best-of-reps timer, one table printer and one
// JSON encoder carry all of them; Run refuses rows that fail their
// condition, and ValidateTrajectories applies the same conditions to
// the committed BENCH_*.json files.
//
// Timing the exploration engines is not done here: the repository
// benchmark (benchmark/, BENCHMARK.json) owns every wall-time and
// memory metric. The ns columns of the certification sweeps price a
// certificate against the reachability run of the same system, nothing
// more; the §3.4 sweeps, the cross-level check and the chaos matrix
// time nothing and are exact.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/explore"
	"repro/internal/testseed"
)

// SweepConfig is the one configuration every sweep cell reads.
type SweepConfig struct {
	// Sizes is the largest Dijkstra ring size of the stabilize sweep.
	Sizes int
	// Limit bounds every exploration engine a cell builds.
	Limit int
	// Quick shrinks sweeps to smoke sizes.
	Quick bool
	// B is the per-step time bound, Seed the scheduler tie-break seed
	// and Max the largest user count of the b-bounded runs (the §3.4
	// sweeps and levels).
	B    float64
	Seed int64
	Max  int
	// RecoverWithin is the chaos recovery window k in states/steps (0
	// disables the criterion).
	RecoverWithin int
	// Reps is how many timed repetitions a cell takes the best of. Run
	// replaces 0 by the sweep's own default.
	Reps int
	// Out receives the table.
	Out io.Writer
}

// explore returns the engine options of the configuration.
func (c SweepConfig) explore() explore.Options {
	return explore.Options{Limit: c.Limit}
}

// sizes yields the user counts of the b-bounded runs: the powers of two
// up to Max (up to 8 under Quick).
func (c SweepConfig) sizes() []int {
	maxN := c.Max
	if c.Quick {
		maxN = 8
	}
	var out []int
	for n := 2; n <= maxN; n *= 2 {
		out = append(out, n)
	}
	return out
}

// bestOf times a cell. Each repetition calls rep, which does the
// untimed set-up (a fresh system, so memo caches start cold) and
// returns the function to time; bestOf returns the least wall time in
// nanoseconds over max(Reps, 1) repetitions.
func (c SweepConfig) bestOf(rep func() (timed func() error, err error)) (int64, error) {
	var best int64
	for r := 0; r < max(c.Reps, 1); r++ {
		timed, err := rep()
		if err != nil {
			return 0, err
		}
		start := testseed.Now()
		err = timed()
		elapsed := testseed.Now().Sub(start).Nanoseconds()
		if err != nil {
			return 0, err
		}
		if r == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best, nil
}

// A column is one column of a sweep's table: its heading, its width
// (negative left-justifies, as in %-9s) and how a row renders in it.
type column[R any] struct {
	head  string
	width int
	cell  func(R) string
}

// printTable writes title, an underline, the headings and one line per
// row, then a blank line.
func printTable[R any](w io.Writer, title string, cols []column[R], rows []R) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	line := func(cell func(column[R]) string) {
		for i, c := range cols {
			if i > 0 {
				fmt.Fprint(w, " ")
			}
			fmt.Fprintf(w, "%*s", c.width, cell(c))
		}
		fmt.Fprintln(w)
	}
	line(func(c column[R]) string { return c.head })
	for _, r := range rows {
		line(func(c column[R]) string { return c.cell(r) })
	}
	fmt.Fprintln(w)
}

// ms renders nanoseconds as milliseconds to one decimal.
func ms(ns int64) string { return tenths(float64(ns) / 1e6) }

// tenths renders a measurement to one decimal.
func tenths(v float64) string { return fmt.Sprintf("%.1f", v) }

// boundFault is what is wrong with a row that records within for a
// response measured against bound: "" when the verdict follows from the
// two numbers and the bound holds.
func boundFault(measured, bound float64, within bool) string {
	if within && measured <= bound+1e-9 {
		return ""
	}
	return fmt.Sprintf("max %.1f, bound %.1f, within=%t", measured, bound, within)
}

// sweepOf describes one sweep over rows of type R.
type sweepOf[R any] struct {
	name  string
	title string
	// reps is the default best-of repetition count; 0 for a sweep that
	// times nothing.
	reps int
	cols []column[R]
	// rows runs the cells.
	rows func(SweepConfig) ([]R, error)
	// check names a row and says what is inconsistent about its
	// verdicts ("" when nothing is).
	check func(R) (key, fault string)
	// control, when non-nil, marks the negative-control rows — the
	// ones proving the certifier can reject; a sweep must keep at least
	// one.
	control func(R) bool
}

// A Sweep is one registered sweep.
type Sweep struct {
	// Name is the registry key (-sweep <name>).
	Name string
	// Artifact is the committed JSON file the sweep's rows land in
	// (BENCH_<name>.json).
	Artifact string
	// Exact reports that the sweep times nothing, so that its committed
	// artifact regenerates byte for byte.
	Exact bool
	// Run executes the sweep: prints the table to cfg.Out and returns
	// the rows for WriteSweepJSON plus their count for the ledger; rows
	// that fail the row conditions come back with an error.
	Run func(cfg SweepConfig) (rows any, n int, err error)
	// Validate decodes rows as WriteSweepJSON wrote them into the
	// sweep's row type and applies its row conditions.
	Validate func(data []byte) error
}

// verify applies the row conditions: every row's verdicts follow from
// its own numbers, and a sweep with a negative control still has one.
// The error has one line per failure, "<sweep> <row key>: <fault>".
func (d sweepOf[R]) verify(rows []R) error {
	var failed []error
	controls := 0
	for _, row := range rows {
		if key, fault := d.check(row); fault != "" {
			failed = append(failed, fmt.Errorf("%s %s: %s", d.name, key, fault))
		}
		if d.control != nil && d.control(row) {
			controls++
		}
	}
	if d.control != nil && controls == 0 {
		failed = append(failed, fmt.Errorf("%s (sweep): no negative-control row: every system certified", d.name))
	}
	return errors.Join(failed...)
}

// sweep erases the row type.
func (d sweepOf[R]) sweep() Sweep {
	artifact := "BENCH_" + d.name + ".json"
	return Sweep{
		Name: d.name, Artifact: artifact, Exact: d.reps == 0,
		Run: func(cfg SweepConfig) (any, int, error) {
			if cfg.Reps <= 0 {
				cfg.Reps = d.reps
			}
			rows, err := d.rows(cfg)
			if err != nil {
				return nil, 0, fmt.Errorf("%s sweep: %w", d.name, err)
			}
			printTable(cfg.Out, d.title, d.cols, rows)
			return rows, len(rows), d.verify(rows)
		},
		Validate: func(data []byte) error {
			var rows []R
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&rows); err != nil {
				return fmt.Errorf("%s: %w", artifact, err)
			}
			if len(rows) == 0 {
				return fmt.Errorf("%s: no rows", artifact)
			}
			return d.verify(rows)
		},
	}
}

// sweeps is the registry, in presentation order.
var sweeps = []Sweep{
	theorem50Sweep.sweep(), theorem52Sweep.sweep(), comparisonSweep.sweep(), levelsSweep.sweep(), chaosSweep.sweep(),
	stabilizeSweep.sweep(), reductionSweep.sweep(), inductSweep.sweep(),
}

// Sweeps returns the registry in presentation order.
func Sweeps() []Sweep { return sweeps }

// FindSweep resolves a registry name; the error of an unknown name
// lists every registered sweep.
func FindSweep(name string) (Sweep, error) {
	for _, s := range sweeps {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, len(sweeps))
	for i, s := range sweeps {
		names[i] = s.Name
	}
	return Sweep{}, fmt.Errorf("bench: unknown sweep %q (registered: %v)", name, names)
}

// WriteSweepJSON emits a sweep's rows as indented JSON — the one
// encoder behind every BENCH_*.json artifact.
func WriteSweepJSON(w io.Writer, rows any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// ValidateTrajectories checks the committed BENCH_*.json file of every
// registered sweep under dir: the files must parse into the row types,
// their verdicts must follow from their own numbers, and the negative
// controls that prove the checkers can reject must still be present.
// (The exact sweeps are also regenerated and byte-compared on every
// push; the timed ones are too expensive to re-run there.)
func ValidateTrajectories(dir string) error {
	var failed []error
	for _, s := range sweeps {
		data, err := os.ReadFile(filepath.Join(dir, s.Artifact))
		if err != nil {
			return err
		}
		failed = append(failed, s.Validate(data))
	}
	return errors.Join(failed...)
}
