package bench

// Observability overhead sweep (E17): parallel reachability on the
// closed arbiter levels with the observability layer disabled (nil
// *obs.Obs — the production default) versus fully enabled (metrics +
// tracing). The disabled rows are the ones held to the ≤2% regression
// budget against the pre-instrumentation engine; the enabled rows
// price the instrumentation itself. Rows are written to BENCH_obs.json
// by arbiterbench -obs-bench.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/testseed"
)

// ObsRow is one measurement of the observability overhead sweep.
type ObsRow struct {
	// System is the closed system explored (arbiter1..arbiter3).
	System string `json:"system"`
	// Mode is obs-off (nil Obs) or obs-on (metrics + tracing).
	Mode string `json:"mode"`
	// Workers is the exploration pool size.
	Workers int `json:"workers"`
	// States is the number of states reached (identical across modes).
	States int `json:"states"`
	// NS is the best-of-reps wall-clock time in nanoseconds.
	NS int64 `json:"ns"`
	// OverheadPct is this row's NS relative to the obs-off row on the
	// same system, in percent (0 for obs-off rows).
	OverheadPct float64 `json:"overhead_pct"`
	// TraceEvents is the number of trace events recorded (obs-on only).
	TraceEvents int `json:"trace_events,omitempty"`
}

// ObsConfig parameterizes the sweep.
type ObsConfig struct {
	// Users is the number of leaf users per arbiter instance
	// (default 6 — large enough that the overhead ratio is not noise;
	// see obsMeasure).
	Users int
	// Levels selects the arbiter levels to measure (default 1..3).
	Levels []int
	// Limit bounds each exploration (0 means explore.DefaultLimit).
	Limit int
	// Workers is the exploration pool size (default 2).
	Workers int
	// Reps is how many timed repetitions to take the best of (default
	// 3); each rebuilds the system so memo caches start cold, and an
	// additional untimed warmup repetition runs first.
	Reps int
	// Now supplies the wall clock for timing rows (nil means
	// testseed.Now). The instrumented runs' tracer uses the same
	// clock.
	Now func() time.Time
}

// obsMeasure times one mode on freshly built systems. Repetition -1
// is an untimed warmup: it pays the allocator growth, code-path JIT
// warmup (branch predictors, page faults), and scheduler ramp that
// otherwise lands entirely on the first timed repetition — on
// sub-millisecond systems that one-time cost used to masquerade as
// multi-percent "overhead" (the old arbiter1 20-state row reported
// 5.8% against the ≤2% budget purely from it).
func obsMeasure(level int, cfg ObsConfig, instrumented bool) (ObsRow, error) {
	mode := "obs-off"
	if instrumented {
		mode = "obs-on"
	}
	row := ObsRow{System: fmt.Sprintf("arbiter%d", level), Mode: mode, Workers: cfg.Workers}
	now := cfg.Now
	if now == nil {
		now = testseed.Now
	}
	for r := -1; r < cfg.Reps; r++ {
		a, err := ExploreSystem(level, cfg.Users)
		if err != nil {
			return row, err
		}
		var o *obs.Obs
		if instrumented {
			o = obs.New(cfg.Now)
			ioa.SetObsDeep(a, o)
		}
		eng := explore.New(explore.Options{Workers: cfg.Workers, Limit: cfg.Limit, Obs: o})
		start := now()
		states, err := eng.Reach(context.Background(), a)
		elapsed := now().Sub(start).Nanoseconds()
		if err != nil && !errors.Is(err, explore.ErrLimit) {
			return row, err
		}
		if r < 0 {
			continue // warmup: never recorded
		}
		if row.NS == 0 || elapsed < row.NS {
			row.NS = elapsed
		}
		row.States = len(states)
		if instrumented {
			row.TraceEvents = o.Tracer.Len()
		}
	}
	return row, nil
}

// ObsSweep measures obs-off vs obs-on on the configured arbiter
// levels. The state counts must agree between modes (observability
// never changes exploration results); a mismatch is returned as an
// error.
func ObsSweep(cfg ObsConfig) ([]ObsRow, error) {
	if cfg.Users <= 0 {
		// 6 users put even the level-1 sweep in the hundreds of states
		// (256 at arbiter1): large enough that per-run jitter stops
		// dominating the overhead ratio the ≤2% budget is read from.
		cfg.Users = 6
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 3
	}
	levels := cfg.Levels
	if len(levels) == 0 {
		levels = []int{1, 2, 3}
	}
	var rows []ObsRow
	for _, level := range levels {
		off, err := obsMeasure(level, cfg, false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, off)
		on, err := obsMeasure(level, cfg, true)
		if err != nil {
			return nil, err
		}
		if on.States != off.States {
			return nil, fmt.Errorf("bench: %s obs-on reached %d states, obs-off %d — observability changed results",
				on.System, on.States, off.States)
		}
		if off.NS > 0 {
			on.OverheadPct = 100 * (float64(on.NS) - float64(off.NS)) / float64(off.NS)
		}
		rows = append(rows, on)
	}
	return rows, nil
}

// PrintObs renders the sweep as a table.
func PrintObs(w io.Writer, rows []ObsRow) {
	title := "Observability overhead: parallel reachability, obs-off vs obs-on (best-of-reps)"
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	fmt.Fprintf(w, "%-10s %-8s %8s %8s %12s %10s %8s\n",
		"system", "mode", "workers", "states", "ns", "overhead", "events")
	for _, r := range rows {
		overhead, events := "-", "-"
		if r.Mode == "obs-on" {
			overhead = fmt.Sprintf("%+.1f%%", r.OverheadPct)
			events = fmt.Sprint(r.TraceEvents)
		}
		fmt.Fprintf(w, "%-10s %-8s %8d %8d %12d %10s %8s\n",
			r.System, r.Mode, r.Workers, r.States, r.NS, overhead, events)
	}
	fmt.Fprintln(w)
}
