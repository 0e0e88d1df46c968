package bench

// The certification sweeps: every sweep the CLI can run with
// `arbiterbench -sweep <name> -sweep-out <file>` is one sweepOf value —
// how its rows are produced, how a row prints, and what must hold of a
// row for the certificate it records to be consistent. One
// configuration, one best-of-reps timer, one table printer and one
// JSON encoder carry all of them, and ValidateTrajectories applies the
// same row conditions to the committed BENCH_*.json files.
//
// Timing the exploration engines is not done here: the repository
// benchmark (benchmark/, BENCHMARK.json) owns every wall-time and
// memory metric. The ns columns below price a certificate against the
// reachability run of the same system, nothing more.

import (
	"bytes"
	"encoding/json"
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
	// Sizes is the largest Dijkstra ring size of the stabilize sweep
	// (0 means 4).
	Sizes int
	// Workers and Limit configure every exploration engine a cell
	// builds.
	Workers int
	Limit   int
	// Quick shrinks sweeps to smoke sizes.
	Quick bool
	// Reps is how many timed repetitions a cell takes the best of. Run
	// replaces 0 by the sweep's own default.
	Reps int
	// Out receives the table (nil means os.Stdout).
	Out io.Writer
}

// explore returns the engine options of the configuration.
func (c SweepConfig) explore() explore.Options {
	return explore.Options{Workers: c.Workers, Limit: c.Limit}
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
func ms(ns int64) string { return fmt.Sprintf("%.1f", float64(ns)/1e6) }

// sweepOf describes one sweep over rows of type R.
type sweepOf[R any] struct {
	name        string
	description string
	title       string
	// reps is the default best-of repetition count.
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
	// Description is the one-line help text.
	Description string
	// Run executes the sweep: prints the table to cfg.Out and returns
	// the rows for WriteSweepJSON plus their count for the ledger.
	Run func(cfg SweepConfig) (rows any, n int, err error)
	// Validate decodes rows as WriteSweepJSON wrote them into the
	// sweep's row type and applies its row conditions: one Check per
	// row, plus one for the negative control where the sweep has one.
	Validate func(data []byte) ([]Check, error)
}

// A Check is one verdict of Validate: a row of a file, whether its
// recorded verdicts are consistent, and what is wrong when not.
type Check struct {
	File   string
	Key    string
	OK     bool
	Detail string
}

// sweep erases the row type.
func (d sweepOf[R]) sweep() Sweep {
	artifact := "BENCH_" + d.name + ".json"
	return Sweep{
		Name: d.name, Artifact: artifact, Description: d.description,
		Run: func(cfg SweepConfig) (any, int, error) {
			if cfg.Reps <= 0 {
				cfg.Reps = d.reps
			}
			rows, err := d.rows(cfg)
			if err != nil {
				return nil, 0, err
			}
			out := cfg.Out
			if out == nil {
				out = os.Stdout
			}
			printTable(out, d.title, d.cols, rows)
			return rows, len(rows), nil
		},
		Validate: func(data []byte) ([]Check, error) {
			var rows []R
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&rows); err != nil {
				return nil, fmt.Errorf("%s: %w", artifact, err)
			}
			if len(rows) == 0 {
				return nil, fmt.Errorf("%s: no rows", artifact)
			}
			var checks []Check
			controls := 0
			for _, row := range rows {
				key, fault := d.check(row)
				checks = append(checks, Check{File: artifact, Key: key, OK: fault == "", Detail: fault})
				if d.control != nil && d.control(row) {
					controls++
				}
			}
			if d.control != nil {
				c := Check{File: artifact, Key: "(sweep)", OK: controls > 0}
				if !c.OK {
					c.Detail = "no negative-control row: every system certified"
				}
				checks = append(checks, c)
			}
			return checks, nil
		},
	}
}

// sweeps is the registry, in presentation order.
var sweeps = []Sweep{stabilizeSweep.sweep(), reductionSweep.sweep(), inductSweep.sweep()}

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
// registered sweep under dir. The sweeps are too expensive to re-run
// per push, but their files must parse into the row types, their
// verdicts must be internally consistent, and the negative controls
// that prove the certifiers can reject must still be present.
func ValidateTrajectories(dir string) ([]Check, error) {
	var checks []Check
	for _, s := range sweeps {
		data, err := os.ReadFile(filepath.Join(dir, s.Artifact))
		if err != nil {
			return nil, err
		}
		cs, err := s.Validate(data)
		if err != nil {
			return nil, err
		}
		checks = append(checks, cs...)
	}
	return checks, nil
}
