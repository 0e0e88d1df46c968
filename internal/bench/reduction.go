package bench

// Reduction sweep (E20): state-count and wall-time ratios of symmetry
// quotienting and ample-set partial-order reduction against the
// unreduced exploration, on the closed arbiter systems. Every row
// re-checks the mutual-exclusion invariant, and the sweep fails if any
// reduced mode disagrees with the unreduced verdict — the bench doubles
// as a coarse differential check (the fine-grained one is the battery
// in internal/reduce).
//
// Topologies measured:
//
//   - arbiter1: the specification arbiter, quotiented by the full
//     symmetric group Sₙ on its users (reduce.ArbiterUsers).
//   - arbiter3: the distributed algorithm on graph.BinaryTree. Its
//     round-robin sendgrant scan pins every node's neighbor circle, so
//     the tree has no nontrivial sound symmetry — only the POR modes
//     run, and the honest reduction is modest (the holder's visible
//     grant is enabled in most states, forcing full expansion there).
//   - arbiter3-star: the same algorithm on graph.Star, whose single
//     neighbor circle makes the rotation group Zₙ a free automorphism
//     group — reduce.StarRotation quotients the state space by exactly
//     n (the headline ≥10x row at n ≥ 10).

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/arbiter/users"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/reduce"
	"repro/internal/store"
	"repro/internal/testseed"
)

// ReductionRow is one measurement of the reduction sweep.
type ReductionRow struct {
	// System is arbiter1, arbiter3, or arbiter3-star.
	System string `json:"system"`
	// Users is the number of user automata.
	Users int `json:"users"`
	// Mode is full, symmetry, por, or both.
	Mode string `json:"mode"`
	// States is the number of states explored under this mode.
	States int `json:"states"`
	// NS is the best-of-reps wall-clock time in nanoseconds.
	NS int64 `json:"ns"`
	// StateRatio is full-mode states divided by this row's states.
	StateRatio float64 `json:"state_ratio"`
	// Speedup is full-mode NS divided by this row's NS.
	Speedup float64 `json:"speedup"`
	// MutexOK is the mutual-exclusion verdict (at most one user
	// holding in every explored state); identical across modes by
	// construction, enforced by the sweep.
	MutexOK bool `json:"mutex_ok"`
}

// ReductionConfig parameterizes the sweep.
type ReductionConfig struct {
	// SpecUsers are the arbiter1 sizes (default 6).
	SpecUsers []int
	// TreeUsers are the binary-tree arbiter3 sizes (default 5, 6).
	TreeUsers []int
	// StarUsers are the star arbiter3 sizes (default 8, 12).
	StarUsers []int
	// Limit bounds each exploration (0 means explore.DefaultLimit).
	Limit int
	// Workers is the explorer pool size (0 or 1 means sequential).
	Workers int
	// Reps is how many timed repetitions to take the best of
	// (default 1; the state counts are deterministic either way).
	Reps int
	// Now supplies the wall clock (nil means testseed.Now).
	Now func() time.Time
}

// reductionCase is one (system, n) instance with its reducers.
type reductionCase struct {
	system string
	users  int
	build  func() (ioa.Automaton, error)
	canon  store.Canonicalizer // nil: no sound symmetry, skip those modes
	por    func(ioa.Automaton) (*reduce.POR, error)
}

func reductionCases(cfg ReductionConfig) ([]reductionCase, error) {
	spec := cfg.SpecUsers
	if spec == nil {
		spec = []int{6}
	}
	tree := cfg.TreeUsers
	if tree == nil {
		tree = []int{5, 6}
	}
	star := cfg.StarUsers
	if star == nil {
		star = []int{8, 12}
	}
	var cases []reductionCase
	for _, n := range spec {
		n := n
		canon, err := reduce.NewArbiterUsers(n)
		if err != nil {
			return nil, err
		}
		cases = append(cases, reductionCase{
			system: "arbiter1",
			users:  n,
			build:  func() (ioa.Automaton, error) { return ExploreSystem(1, n) },
			canon:  canon,
			por: func(a ioa.Automaton) (*reduce.POR, error) {
				return reduce.NewPOR(a, reduce.Options{Visible: reduce.HolderVisibility})
			},
		})
	}
	for _, n := range tree {
		n := n
		tr, err := graph.BinaryTree(n)
		if err != nil {
			return nil, err
		}
		cases = append(cases, reductionCase{
			system: "arbiter3",
			users:  n,
			build:  func() (ioa.Automaton, error) { return ExploreSystem(3, n) },
			por: func(a ioa.Automaton) (*reduce.POR, error) {
				return reduce.NewPOR(a, reduce.Options{
					Rules:   reduce.ArbiterRules(tr),
					Visible: reduce.HolderVisibility,
				})
			},
		})
	}
	for _, n := range star {
		n := n
		tr, err := graph.Star(n)
		if err != nil {
			return nil, err
		}
		canon, err := reduce.NewStarRotation(n)
		if err != nil {
			return nil, err
		}
		cases = append(cases, reductionCase{
			system: "arbiter3-star",
			users:  n,
			build:  func() (ioa.Automaton, error) { return StarSystem(n) },
			canon:  canon,
			por: func(a ioa.Automaton) (*reduce.POR, error) {
				return reduce.NewPOR(a, reduce.Options{
					Rules:   reduce.ArbiterRules(tr),
					Visible: reduce.HolderVisibility,
				})
			},
		})
	}
	return cases, nil
}

// MutexInvariant reports whether at most one user automaton holds the
// resource in a closed arbiter state (components 1..n are the users).
// It is invariant under every canonicalizer in internal/reduce, so
// reduced and unreduced explorations must agree on its verdict.
func MutexInvariant(s ioa.State) bool {
	ts, ok := s.(*ioa.TupleState)
	if !ok {
		return true
	}
	holding := 0
	for i := 1; i < ts.Len(); i++ {
		if u, ok := ts.At(i).(*users.State); ok && u.Phase() == users.Holding {
			holding++
		}
	}
	return holding <= 1
}

// ReductionSweep measures every case under each applicable mode and
// cross-checks the invariant verdicts.
func ReductionSweep(cfg ReductionConfig) ([]ReductionRow, error) {
	cases, err := reductionCases(cfg)
	if err != nil {
		return nil, err
	}
	var rows []ReductionRow
	for _, c := range cases {
		modes := []string{"full", "por"}
		if c.canon != nil {
			modes = []string{"full", "symmetry", "por", "both"}
		}
		var full ReductionRow
		for _, mode := range modes {
			row, err := reductionMeasure(c, cfg, mode)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d %s: %w", c.system, c.users, mode, err)
			}
			if mode == "full" {
				full = row
			}
			if row.MutexOK != full.MutexOK {
				return nil, fmt.Errorf("%s n=%d: %s verdict %v disagrees with full %v",
					c.system, c.users, mode, row.MutexOK, full.MutexOK)
			}
			row.StateRatio = float64(full.States) / float64(row.States)
			if row.NS > 0 {
				row.Speedup = float64(full.NS) / float64(row.NS)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func reductionMeasure(c reductionCase, cfg ReductionConfig, mode string) (ReductionRow, error) {
	row := ReductionRow{System: c.system, Users: c.users, Mode: mode}
	limit := cfg.Limit
	if limit <= 0 {
		limit = explore.DefaultLimit
	}
	reps := cfg.Reps
	if reps <= 0 {
		reps = 1
	}
	now := cfg.Now
	if now == nil {
		now = testseed.Now
	}
	for r := 0; r < reps; r++ {
		a, err := c.build()
		if err != nil {
			return row, err
		}
		opts := explore.Options{Workers: cfg.Workers, Limit: limit}
		if mode == "symmetry" || mode == "both" {
			opts.Canon = c.canon
		}
		if mode == "por" || mode == "both" {
			p, err := c.por(a)
			if err != nil {
				return row, err
			}
			opts.Ample = p
		}
		eng := explore.New(opts)
		start := now()
		states, err := eng.Reach(context.Background(), a)
		elapsed := now().Sub(start).Nanoseconds()
		if err != nil {
			return row, err
		}
		mutexOK := true
		for _, s := range states {
			if !MutexInvariant(s) {
				mutexOK = false
				break
			}
		}
		row.States = len(states)
		row.MutexOK = mutexOK
		if row.NS == 0 || elapsed < row.NS {
			row.NS = elapsed
		}
	}
	return row, nil
}

// PrintReduction writes the sweep as an aligned table.
func PrintReduction(w io.Writer, rows []ReductionRow) {
	fmt.Fprintln(w, "Reduction sweep — symmetry quotient and ample-set POR vs unreduced (E20)")
	fmt.Fprintf(w, "%-14s %6s %-9s %9s %8s %9s %8s %s\n",
		"system", "users", "mode", "states", "ratio", "ms", "speedup", "mutex")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %6d %-9s %9d %7.2fx %9.1f %7.2fx %v\n",
			r.System, r.Users, r.Mode, r.States, r.StateRatio,
			float64(r.NS)/1e6, r.Speedup, r.MutexOK)
	}
}
