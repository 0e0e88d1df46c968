package bench

// Interned-store benchmark sweep (E18): sequential reachability on the
// closed arbiter levels with the PR-4 seed explorer (string-keyed
// map[string]struct{} dedup, successor slices materialized per step —
// kept as explore.ReferenceReach) versus the interned store-backed
// engine, sequential and parallel. Each row records wall-clock time,
// the speedup against the reference baseline on the same system, and —
// for interned rows — the store's arena footprint, from which
// EXPERIMENTS.md derives the bytes/state accounting. Rows are written
// to BENCH_store.json by arbiterbench -store-bench.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/store"
	"repro/internal/testseed"
)

// StoreRow is one measurement of the store sweep.
type StoreRow struct {
	// System is the closed system explored: arbiter1, arbiter2, arbiter3.
	System string `json:"system"`
	// Mode is reference (PR-4 seed explorer), interned (store-backed
	// sequential engine), or interned-parallel.
	Mode string `json:"mode"`
	// Workers is the pool size for interned-parallel, 0 otherwise.
	Workers int `json:"workers,omitempty"`
	// States is the number of states reached (identical across modes).
	States int `json:"states"`
	// Truncated reports that the state budget was hit (partial result).
	Truncated bool `json:"truncated,omitempty"`
	// NS is the best-of-reps wall-clock time in nanoseconds.
	NS int64 `json:"ns"`
	// Speedup is reference NS divided by this row's NS.
	Speedup float64 `json:"speedup"`
	// ArenaBytes is the store's encoded payload after interning the
	// full result (interned rows only).
	ArenaBytes int64 `json:"arena_bytes,omitempty"`
	// BytesPerState is ArenaBytes/States rounded to the nearest byte
	// (interned rows only).
	BytesPerState int64 `json:"bytes_per_state,omitempty"`
}

// StoreConfig parameterizes the sweep.
type StoreConfig struct {
	// Users is the number of leaf users per arbiter instance.
	Users int
	// Levels selects the arbiter levels to measure (default 1..3).
	Levels []int
	// Limit bounds each exploration (0 means explore.DefaultLimit).
	Limit int
	// Workers are the pool sizes for the interned-parallel rows
	// (default 4).
	Workers []int
	// Reps is how many timed repetitions to take the best of (default
	// 3); each rebuilds the system so memo caches start cold.
	Reps int
	// Now supplies the wall clock for timing rows (nil means
	// testseed.Now).
	Now func() time.Time
}

// storeMeasure times one mode on freshly built systems.
func storeMeasure(level int, cfg StoreConfig, mode string, workers int) (StoreRow, error) {
	row := StoreRow{System: fmt.Sprintf("arbiter%d", level), Mode: mode, Workers: workers}
	limit := cfg.Limit
	if limit <= 0 {
		limit = explore.DefaultLimit
	}
	now := cfg.Now
	if now == nil {
		now = testseed.Now
	}
	var states []ioa.State
	for r := 0; r < cfg.Reps; r++ {
		a, err := ExploreSystem(level, cfg.Users)
		if err != nil {
			return row, err
		}
		start := now()
		switch mode {
		case "reference":
			states, err = explore.ReferenceReach(a, limit)
		default:
			w := workers
			if mode == "interned" {
				w = 1
			}
			states, err = explore.New(explore.Options{Workers: w, Limit: limit}).Reach(context.Background(), a)
		}
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
	if mode != "reference" && len(states) > 0 {
		// Re-intern the result to account the store footprint exactly
		// (outside the timed region; the explorer's own store is
		// internal to the run).
		st := store.New(store.Options{})
		for _, s := range states {
			st.Intern(s)
		}
		stats := st.Stats()
		row.ArenaBytes = stats.ArenaBytes
		if stats.States > 0 {
			row.BytesPerState = (stats.ArenaBytes + int64(stats.States)/2) / int64(stats.States)
		}
	}
	return row, nil
}

// StoreSweep measures the reference explorer against the interned
// engine on the configured arbiter levels. The state counts must agree
// across modes (the bit-identical-order contract implies equal
// counts); a mismatch is returned as an error.
func StoreSweep(cfg StoreConfig) ([]StoreRow, error) {
	if cfg.Users <= 0 {
		cfg.Users = 3
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 3
	}
	levels := cfg.Levels
	if len(levels) == 0 {
		levels = []int{1, 2, 3}
	}
	workers := cfg.Workers
	if len(workers) == 0 {
		workers = []int{4}
	}
	var rows []StoreRow
	for _, level := range levels {
		base, err := storeMeasure(level, cfg, "reference", 0)
		if err != nil {
			return nil, err
		}
		base.Speedup = 1
		rows = append(rows, base)
		measure := func(mode string, w int) error {
			row, err := storeMeasure(level, cfg, mode, w)
			if err != nil {
				return err
			}
			if row.States != base.States || row.Truncated != base.Truncated {
				return fmt.Errorf("bench: %s %s/%d reached %d states (truncated=%t), reference %d (truncated=%t)",
					row.System, mode, w, row.States, row.Truncated, base.States, base.Truncated)
			}
			row.Speedup = float64(base.NS) / float64(row.NS)
			rows = append(rows, row)
			return nil
		}
		if err := measure("interned", 0); err != nil {
			return nil, err
		}
		for _, w := range workers {
			if err := measure("interned-parallel", w); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// PrintStore renders the sweep as a table.
func PrintStore(w io.Writer, rows []StoreRow) {
	title := "Reachability: reference (string-keyed) vs interned store engine (best-of-reps)"
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	fmt.Fprintf(w, "%-10s %-18s %8s %8s %12s %9s %10s %7s\n",
		"system", "mode", "workers", "states", "ns", "speedup", "arena", "B/state")
	for _, r := range rows {
		workers, arena, bps := "-", "-", "-"
		if r.Mode == "interned-parallel" {
			workers = fmt.Sprint(r.Workers)
		}
		if r.Mode != "reference" {
			arena = fmt.Sprint(r.ArenaBytes)
			bps = fmt.Sprint(r.BytesPerState)
		}
		states := fmt.Sprint(r.States)
		if r.Truncated {
			states += "+"
		}
		fmt.Fprintf(w, "%-10s %-18s %8s %8s %12d %8.2fx %10s %7s\n",
			r.System, r.Mode, workers, states, r.NS, r.Speedup, arena, bps)
	}
	fmt.Fprintln(w)
}
