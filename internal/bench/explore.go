package bench

// Reachability benchmark sweep over the three arbiter levels
// (E15): sequential exploration with the composition memo disabled
// (the seed baseline), sequential with memo, and the parallel sharded
// explorer at several worker counts. Each row records wall-clock time
// and the speedup against the uncached sequential baseline on the
// same system.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/arbiter/dist"
	"repro/internal/arbiter/graphlevel"
	"repro/internal/arbiter/spec"
	"repro/internal/arbiter/users"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/testseed"
)

// ExploreRow is one measurement of the explore sweep.
type ExploreRow struct {
	// System is the closed system explored: arbiter1, arbiter2, arbiter3.
	System string `json:"system"`
	// Mode is serial-nomemo (seed baseline), serial, or parallel.
	Mode string `json:"mode"`
	// Workers is the pool size for parallel mode, 0 otherwise.
	Workers int `json:"workers,omitempty"`
	// States is the number of states reached (identical across modes).
	States int `json:"states"`
	// Truncated reports that the state budget was hit (partial result).
	Truncated bool `json:"truncated,omitempty"`
	// NS is the best-of-reps wall-clock time in nanoseconds.
	NS int64 `json:"ns"`
	// Speedup is serial-nomemo NS divided by this row's NS.
	Speedup float64 `json:"speedup"`
}

// ExploreConfig parameterizes the sweep.
type ExploreConfig struct {
	// Users is the number of leaf users in each arbiter instance.
	Users int
	// Limit bounds each exploration (0 means explore.DefaultLimit).
	Limit int
	// Workers are the pool sizes to measure (default 1, 2, 4).
	Workers []int
	// Reps is how many timed repetitions to take the best of
	// (default 3). Every repetition rebuilds the system so the memo
	// caches start cold.
	Reps int
	// Now supplies the wall clock for timing rows (nil means
	// testseed.Now, the repository's sanctioned accessor). Tests
	// inject a fake clock to keep the sweep itself deterministic.
	Now func() time.Time
}

// ExploreSystem builds the closed arbiter system at the given level
// (1, 2, or 3) with n users: the specification, the graph-level
// automaton, or the distributed algorithm over reliable channels,
// each renamed to spec actions and composed with heavy-load users.
func ExploreSystem(level, n int) (ioa.Automaton, error) {
	switch level {
	case 1:
		names := spec.DefaultUsers(n)
		a1 := spec.New(names)
		comps := append([]ioa.Automaton{a1}, users.Automata(users.HeavyLoad(names))...)
		return ioa.Compose("arbiter1", comps...)
	case 2, 3:
		tr, err := graph.BinaryTree(n)
		if err != nil {
			return nil, err
		}
		return SystemOn(level, tr)
	default:
		return nil, fmt.Errorf("bench: no arbiter level %d", level)
	}
}

// StarSystem builds the closed level-3 distributed arbiter over
// graph.Star(n): a single process automaton with all n users on its
// neighbor circle, composed with heavy-load users. This is the
// maximally symmetric level-3 topology — rotating the users is an
// automorphism of the whole algorithm (Figure 3.5's round-robin
// sendgrant scan is rotation-invariant), so reduce.StarRotation
// quotients its state space by exactly n.
func StarSystem(n int) (ioa.Automaton, error) {
	tr, err := graph.Star(n)
	if err != nil {
		return nil, err
	}
	return SystemOn(3, tr)
}

// SystemOn builds the closed arbiter system at level 2 or 3 over an
// explicit tree topology, renamed to spec actions and composed with
// heavy-load users.
func SystemOn(level int, tr *graph.Tree) (ioa.Automaton, error) {
	var names []string
	for _, u := range tr.NodesOf(graph.User) {
		names = append(names, tr.Node(u).Name)
	}
	holder := tr.NodesOf(graph.Arbiter)[0]
	var arb ioa.Automaton
	switch level {
	case 2:
		a2, err := graphlevel.New(tr, tr.Neighbors(holder)[0], holder)
		if err != nil {
			return nil, err
		}
		arb, err = ioa.Rename(a2, graphlevel.F1(tr))
		if err != nil {
			return nil, err
		}
	case 3:
		aug, err := graph.Augment(tr)
		if err != nil {
			return nil, err
		}
		sys, err := dist.NewWithFaults(tr, holder, faults.Injection{})
		if err != nil {
			return nil, err
		}
		f2, err := sys.F2(aug)
		if err != nil {
			return nil, err
		}
		a3x, err := ioa.Rename(sys.A3, f2)
		if err != nil {
			return nil, err
		}
		arb, err = ioa.Rename(a3x, graphlevel.F1(aug))
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("bench: no tree-level arbiter %d", level)
	}
	comps := append([]ioa.Automaton{arb}, users.Automata(users.HeavyLoad(names))...)
	return ioa.Compose(fmt.Sprintf("arbiter%d", level), comps...)
}

// exploreMeasure times one exploration mode on freshly built systems,
// returning the best of reps runs.
func exploreMeasure(level int, cfg ExploreConfig, mode string, workers int) (ExploreRow, error) {
	row := ExploreRow{System: fmt.Sprintf("arbiter%d", level), Mode: mode, Workers: workers}
	limit := cfg.Limit
	if limit <= 0 {
		limit = explore.DefaultLimit
	}
	reps := cfg.Reps
	if reps <= 0 {
		reps = 3
	}
	now := cfg.Now
	if now == nil {
		now = testseed.Now
	}
	for r := 0; r < reps; r++ {
		a, err := ExploreSystem(level, cfg.Users)
		if err != nil {
			return row, err
		}
		if mode == "serial-nomemo" {
			ioa.SetMemoDeep(a, false)
		}
		var states []ioa.State
		w := workers
		if mode != "parallel" {
			w = 1
		}
		eng := explore.New(explore.Options{Workers: w, Limit: limit})
		start := now()
		states, err = eng.Reach(context.Background(), a)
		elapsed := now().Sub(start).Nanoseconds()
		if err != nil {
			if !errors.Is(err, explore.ErrLimit) {
				return row, err
			}
			row.Truncated = true
		}
		if row.NS == 0 || elapsed < row.NS {
			row.NS = elapsed
		}
		row.States = len(states)
	}
	return row, nil
}

// ExploreSweep measures all modes on all three arbiter levels. Rows
// for one system agree on States and Truncated regardless of mode —
// the determinism contract of the parallel engine — and ExploreSweep
// returns an error if they do not.
func ExploreSweep(cfg ExploreConfig) ([]ExploreRow, error) {
	if cfg.Users <= 0 {
		cfg.Users = 3
	}
	workers := cfg.Workers
	if len(workers) == 0 {
		workers = []int{1, 2, 4}
	}
	var rows []ExploreRow
	for level := 1; level <= 3; level++ {
		base, err := exploreMeasure(level, cfg, "serial-nomemo", 0)
		if err != nil {
			return nil, err
		}
		base.Speedup = 1
		rows = append(rows, base)
		measure := func(mode string, w int) error {
			row, err := exploreMeasure(level, cfg, mode, w)
			if err != nil {
				return err
			}
			if row.States != base.States || row.Truncated != base.Truncated {
				return fmt.Errorf("bench: %s %s/%d reached %d states (truncated=%t), baseline %d (truncated=%t)",
					row.System, mode, w, row.States, row.Truncated, base.States, base.Truncated)
			}
			row.Speedup = float64(base.NS) / float64(row.NS)
			rows = append(rows, row)
			return nil
		}
		if err := measure("serial", 0); err != nil {
			return nil, err
		}
		for _, w := range workers {
			if err := measure("parallel", w); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// PrintExplore renders the sweep as a table.
func PrintExplore(w io.Writer, rows []ExploreRow) {
	title := "Reachability: serial vs memoized vs parallel (best-of-reps wall clock)"
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	fmt.Fprintf(w, "%-10s %-14s %8s %8s %12s %9s\n",
		"system", "mode", "workers", "states", "ns", "speedup")
	for _, r := range rows {
		workers := "-"
		if r.Mode == "parallel" {
			workers = fmt.Sprint(r.Workers)
		}
		states := fmt.Sprint(r.States)
		if r.Truncated {
			states += "+"
		}
		fmt.Fprintf(w, "%-10s %-14s %8s %8s %12d %8.2fx\n",
			r.System, r.Mode, workers, states, r.NS, r.Speedup)
	}
	fmt.Fprintln(w)
}
