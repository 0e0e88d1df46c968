package bench

// Reduction sweep (E20): state-count and wall-time ratios of symmetry
// quotienting against the unreduced exploration, on the closed arbiter
// systems with a sound symmetry. Every row re-checks the
// mutual-exclusion invariant, and the sweep fails if the quotient
// disagrees with the unreduced verdict — the bench doubles as a coarse
// differential check (the fine-grained one is the battery in
// internal/reduce).
//
// Measured, each with the canonicalizer of its catalogue entry:
// arbiter1 (the full symmetric group Sₙ on its users) and
// arbiter3-star, whose rotation group Zₙ quotients the state space by
// exactly n (the headline ≥10x row at n ≥ 10). The binary tree has no
// sound symmetry and so no row.

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/arbiter/users"
	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/store"
)

// ReductionRow is one measurement of the reduction sweep.
type ReductionRow struct {
	// System is arbiter1 or arbiter3-star.
	System string `json:"system"`
	// Users is the number of user automata.
	Users int `json:"users"`
	// Mode is full or symmetry.
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

// reductionCase is one (system, n) instance; its canonicalizer is the
// catalogue entry's.
type reductionCase struct {
	system string // the row label
	users  int
	sys    System
	canon  store.Canonicalizer
}

// reductionCases lists the instances: arbiter1 at 6 users, the star at
// 8 and 12; smoke sizes under quick.
func reductionCases(quick bool) ([]reductionCase, error) {
	var cases []reductionCase
	for _, c := range []struct {
		label, system string
		users, quick  []int
	}{
		{"arbiter1", "arbiter1", []int{6}, []int{3}},
		{"arbiter3-star", "star", []int{8, 12}, []int{4}},
	} {
		sys, err := FindSystem(c.system)
		if err != nil {
			return nil, err
		}
		if quick {
			c.users = c.quick
		}
		for _, n := range c.users {
			canon, err := sys.Canon(n)
			if err != nil {
				return nil, err
			}
			cases = append(cases, reductionCase{system: c.label, users: n, sys: sys, canon: canon})
		}
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

// reductionRows measures every case unreduced and quotiented, and
// cross-checks the invariant verdicts.
func reductionRows(cfg SweepConfig) ([]ReductionRow, error) {
	cases, err := reductionCases(cfg.Quick)
	if err != nil {
		return nil, err
	}
	var rows []ReductionRow
	for _, c := range cases {
		var full ReductionRow
		for _, mode := range []string{"full", "symmetry"} {
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

func reductionMeasure(c reductionCase, cfg SweepConfig, mode string) (ReductionRow, error) {
	row := ReductionRow{System: c.system, Users: c.users, Mode: mode}
	var states []ioa.State
	ns, err := cfg.bestOf(func() (func() error, error) {
		a, err := c.sys.Build(Params{Users: c.users})
		if err != nil {
			return nil, err
		}
		opts := cfg.explore()
		if mode == "symmetry" {
			opts.Canon = c.canon
		}
		eng := explore.New(opts)
		return func() (err error) {
			states, err = eng.Reach(context.Background(), a)
			return err
		}, nil
	})
	if err != nil {
		return row, err
	}
	row.NS = ns
	row.States = len(states)
	row.MutexOK = true
	for _, s := range states {
		if !MutexInvariant(s) {
			row.MutexOK = false
			break
		}
	}
	return row, nil
}

// reductionSweep is the E20 sweep. One repetition by default: the
// state counts are deterministic and the full-mode star at 12 users
// dominates the run.
var reductionSweep = sweepOf[ReductionRow]{
	name:  "reduction",
	title: "Reduction sweep — symmetry quotient vs unreduced (E20)",
	reps:  1,
	rows:  reductionRows,
	cols: []column[ReductionRow]{
		{"system", -14, func(r ReductionRow) string { return r.System }},
		{"users", 6, func(r ReductionRow) string { return strconv.Itoa(r.Users) }},
		{"mode", -9, func(r ReductionRow) string { return r.Mode }},
		{"states", 9, func(r ReductionRow) string { return strconv.Itoa(r.States) }},
		{"ratio", 8, func(r ReductionRow) string { return fmt.Sprintf("%.2fx", r.StateRatio) }},
		{"ms", 9, func(r ReductionRow) string { return ms(r.NS) }},
		{"speedup", 8, func(r ReductionRow) string { return fmt.Sprintf("%.2fx", r.Speedup) }},
		{"mutex", 0, func(r ReductionRow) string { return strconv.FormatBool(r.MutexOK) }},
	},
	check: func(r ReductionRow) (key, fault string) {
		key = fmt.Sprintf("%s/u%d/%s", r.System, r.Users, r.Mode)
		if !(r.MutexOK && r.StateRatio >= 1) {
			fault = fmt.Sprintf("mutex_ok=%t state_ratio=%.2f", r.MutexOK, r.StateRatio)
		}
		return key, fault
	},
}
