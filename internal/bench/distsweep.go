package bench

// External-memory & distributed exploration sweep (E23): the grid
// scale harness explored three ways — in-RAM engine, disk-spilling
// external census, and the multi-process cluster at several process
// counts — with every mode pinned to the grid's closed-form state
// count and depth. Rows are written to BENCH_dist.json by arbiterbench
// -sweep dist; the committed file additionally carries the standalone
// ≥10⁸-state headline run recorded in EXPERIMENTS.md E23.

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/explore"
	"repro/internal/grid"
	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/testseed"
)

// DistRow is one measurement of the external/distributed sweep.
type DistRow struct {
	// System is the grid shape explored (grid-<m>x<k>).
	System string `json:"system"`
	// Mode is ram, spill, or cluster.
	Mode string `json:"mode"`
	// Procs is the worker-process count (cluster rows).
	Procs int `json:"procs,omitempty"`
	// States is the admitted-state count (identical across modes and
	// equal to the closed form m^k).
	States int64 `json:"states"`
	// Depth is the BFS depth (closed form k·(m-1)).
	Depth int64 `json:"depth"`
	// NS is the wall-clock time in nanoseconds (best of reps).
	NS int64 `json:"ns"`
	// MemBudgetBytes is the spill RAM budget (spill rows).
	MemBudgetBytes int64 `json:"mem_budget_bytes,omitempty"`
	// SpilledBytes is the on-disk sorted-run volume at completion.
	SpilledBytes int64 `json:"spilled_bytes,omitempty"`
	// SpillRuns is the sorted-run count at completion.
	SpillRuns int64 `json:"spill_runs,omitempty"`
	// BarrierWaitNS totals worker time blocked at level barriers
	// (cluster rows).
	BarrierWaitNS int64 `json:"barrier_wait_ns,omitempty"`
	// PerRank is each rank's shard size (cluster rows — the balance
	// evidence).
	PerRank []int64 `json:"per_rank,omitempty"`
	// MaxRSSKB is the peak resident set of the standalone headline run
	// (VmHWM from /proc/<pid>/status, headline entry only).
	MaxRSSKB int64 `json:"max_rss_kb,omitempty"`
}

// DistReport is the BENCH_dist.json schema: the sweep rows plus the
// optional standalone headline run.
type DistReport struct {
	// Headline is the ≥10⁸-state external census run (E23), recorded
	// from a standalone ioasim invocation rather than re-run by the
	// sweep.
	Headline *DistRow  `json:"headline,omitempty"`
	Rows     []DistRow `json:"rows"`
}

// DistConfig parameterizes the sweep.
type DistConfig struct {
	// Base and Digits select the grid shape (default 10×5 — 100k
	// states; with Quick, 10×3).
	Base, Digits int
	// Procs are the cluster worker counts to measure (default 1, 2, 4).
	Procs []int
	// MemBudget is the spill RAM budget in bytes (default 64 KiB, so
	// even the quick shape genuinely spills).
	MemBudget int64
	// SpillDir receives the spill runs (default the OS temp dir; each
	// run gets a private subdirectory).
	SpillDir string
	// Reps is how many timed repetitions to take the best of
	// (default 2).
	Reps int
	// Quick shrinks the shape for smoke testing.
	Quick bool
	// Now supplies the wall clock (nil means testseed.Now).
	Now func() time.Time
}

// DistSweep measures the three exploration modes on the configured
// grid. Every row's state count and depth are checked against the
// closed forms, so a silent divergence in any backend fails the sweep
// rather than producing a wrong row.
func DistSweep(cfg DistConfig) ([]DistRow, error) {
	if cfg.Base <= 0 {
		cfg.Base = 10
	}
	if cfg.Digits <= 0 {
		cfg.Digits = 5
	}
	if cfg.Quick {
		cfg.Base, cfg.Digits = 10, 3
	}
	if len(cfg.Procs) == 0 {
		cfg.Procs = []int{1, 2, 4}
	}
	if cfg.MemBudget <= 0 {
		cfg.MemBudget = 64 << 10
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 2
	}
	now := cfg.Now
	if now == nil {
		now = testseed.Now
	}

	g, err := grid.New(cfg.Base, cfg.Digits)
	if err != nil {
		return nil, err
	}
	wantStates, wantDepth := g.States(), g.Depth()
	check := func(row DistRow) (DistRow, error) {
		if row.States != wantStates || row.Depth != wantDepth {
			return row, fmt.Errorf("bench: %s %s reached %d states depth %d, closed form %d/%d",
				row.System, row.Mode, row.States, row.Depth, wantStates, wantDepth)
		}
		return row, nil
	}

	var rows []DistRow

	ram := DistRow{System: g.Name(), Mode: "ram"}
	for r := 0; r < cfg.Reps; r++ {
		eng := explore.New(explore.Options{Workers: 2, Limit: int(wantStates)})
		start := now()
		states, err := eng.Reach(context.Background(), g)
		elapsed := now().Sub(start).Nanoseconds()
		if err != nil {
			return nil, err
		}
		sum, err := eng.Census(context.Background(), g, nil, nil)
		if err != nil {
			return nil, err
		}
		ram.States, ram.Depth = int64(len(states)), sum.Depth
		if ram.NS == 0 || elapsed < ram.NS {
			ram.NS = elapsed
		}
	}
	ram, err = check(ram)
	if err != nil {
		return nil, err
	}
	rows = append(rows, ram)

	spill := DistRow{System: g.Name(), Mode: "spill", MemBudgetBytes: cfg.MemBudget}
	for r := 0; r < cfg.Reps; r++ {
		dir, cleanup, err := spillDir(cfg.SpillDir)
		if err != nil {
			return nil, err
		}
		o := obs.New(cfg.Now)
		eng := explore.New(explore.Options{
			Workers: 1,
			Limit:   int(wantStates),
			Spill:   &store.SpillOptions{Dir: dir, MemBudget: cfg.MemBudget},
			Decode:  g.Decode,
			Obs:     o,
		})
		start := now()
		sum, err := eng.Census(context.Background(), g, nil, nil)
		elapsed := now().Sub(start).Nanoseconds()
		if cerr := cleanup(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		spill.States, spill.Depth = sum.States, sum.Depth
		if spill.NS == 0 || elapsed < spill.NS {
			spill.NS = elapsed
		}
		snap := o.Reg.Snapshot()
		spill.SpilledBytes = snap.Gauges["store.spilled_bytes"]
		spill.SpillRuns = snap.Gauges["store.spill_runs"]
	}
	spill, err = check(spill)
	if err != nil {
		return nil, err
	}
	rows = append(rows, spill)

	for _, procs := range cfg.Procs {
		row := DistRow{System: g.Name(), Mode: "cluster", Procs: procs}
		for r := 0; r < cfg.Reps; r++ {
			res, elapsed, err := distCluster(g, procs, now)
			if err != nil {
				return nil, err
			}
			row.States, row.Depth = res.States, res.Depth
			row.PerRank = res.PerRank
			row.BarrierWaitNS = res.BarrierWaitNS
			if row.NS == 0 || elapsed < row.NS {
				row.NS = elapsed
			}
		}
		row, err = check(row)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// spillDir makes a private spill directory under base (or the OS temp
// dir) and returns its cleanup.
func spillDir(base string) (string, func() error, error) {
	dir, err := os.MkdirTemp(base, "bench-spill-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() error { return os.RemoveAll(dir) }, nil
}

// distCluster runs one in-process cluster exploration of g: the
// coordinator and procs workers are goroutines over real localhost
// TCP, exactly the protocol the multi-process CLI mode speaks.
func distCluster(g *grid.Grid, procs int, now func() time.Time) (cluster.Result, int64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return cluster.Result{}, 0, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return cluster.Result{}, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cfg := cluster.Config{
		Addr:  addr,
		Procs: procs,
		Build: func() (ioa.Automaton, error) { return g, nil },
	}
	start := now()
	var (
		res     cluster.Result
		coorErr error
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, coorErr = cluster.Coordinate(ctx, cfg)
	}()
	workErrs := make([]error, procs)
	var wwg sync.WaitGroup
	for rank := 0; rank < procs; rank++ {
		wwg.Add(1)
		go func(rank int) {
			defer wwg.Done()
			for try := 0; try < 100; try++ {
				err := cluster.Work(ctx, cfg)
				if err == nil || !strings.Contains(err.Error(), "connection refused") {
					workErrs[rank] = err
					return
				}
				select {
				case <-ctx.Done():
					workErrs[rank] = ctx.Err()
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
		}(rank)
	}
	wwg.Wait()
	wg.Wait()
	elapsed := now().Sub(start).Nanoseconds()
	if coorErr != nil {
		return res, elapsed, coorErr
	}
	for rank, err := range workErrs {
		if err != nil {
			return res, elapsed, fmt.Errorf("bench: cluster rank %d: %w", rank, err)
		}
	}
	return res, elapsed, nil
}

// PrintDist renders the sweep as a table.
func PrintDist(w io.Writer, rows []DistRow) {
	title := "External memory & distributed exploration: grid census by backend (best-of-reps)"
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	fmt.Fprintf(w, "%-12s %-8s %6s %10s %6s %12s %14s %6s\n",
		"system", "mode", "procs", "states", "depth", "ns", "spilled", "runs")
	for _, r := range rows {
		procs, spilled, runs := "-", "-", "-"
		if r.Procs > 0 {
			procs = fmt.Sprint(r.Procs)
		}
		if r.Mode == "spill" {
			spilled = fmt.Sprint(r.SpilledBytes)
			runs = fmt.Sprint(r.SpillRuns)
		}
		fmt.Fprintf(w, "%-12s %-8s %6s %10d %6d %12d %14s %6s\n",
			r.System, r.Mode, procs, r.States, r.Depth, r.NS, spilled, runs)
	}
	fmt.Fprintln(w)
}
