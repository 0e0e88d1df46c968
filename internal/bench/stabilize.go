package bench

// Self-stabilization certification sweep (E19): Dijkstra's K-state
// token ring certified over ring size × corruption envelope, plus the
// LeLann token ring under crash corruption as the negative control.
// Each row records the certifier's verdicts (closure, convergence,
// boundedness), the measured worst-case rounds-to-legitimacy bound,
// and best-of-reps wall-clock time. Rows are written to
// BENCH_stabilize.json by arbiterbench -stabilize-bench.

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/arbiter/spec"
	"repro/internal/domain"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/ring"
	"repro/internal/stabilize"
	"repro/internal/testseed"
)

// StabilizeRow is one certification cell of the sweep.
type StabilizeRow struct {
	// System names the certified automaton: dijkstra or lelann.
	System string `json:"system"`
	// N is the ring size; K the counter modulus (Dijkstra rows only).
	N int `json:"n"`
	K int `json:"k_modulus,omitempty"`
	// Envelope names the corruption envelope; EnvelopeStates counts
	// its distinct states and States the size of its closure.
	Envelope       string `json:"envelope"`
	EnvelopeStates int    `json:"envelope_states"`
	States         int    `json:"states"`
	// Stabilizing, Closed, Converges, Bounded are the certificate
	// verdicts.
	Stabilizing bool `json:"stabilizing"`
	Closed      bool `json:"closed"`
	Converges   bool `json:"converges"`
	Bounded     bool `json:"bounded"`
	// Bound is the measured worst-case rounds-to-legitimacy over the
	// envelope (-1 when convergence is unbounded or fails);
	// MeanRounds the envelope average.
	Bound      int     `json:"bound"`
	MeanRounds float64 `json:"mean_rounds"`
	// NS is the best-of-reps certification wall time in nanoseconds.
	NS int64 `json:"ns"`
}

// StabilizeConfig parameterizes the sweep.
type StabilizeConfig struct {
	// Sizes are the Dijkstra ring sizes to certify (default 3..5; the
	// full envelope has K^n states, so keep n modest).
	Sizes []int
	// Workers is the certification engine's worker count.
	Workers int
	// Limit bounds each envelope closure (0 = explore.DefaultLimit).
	Limit int
	// Reps is how many timed repetitions to take the best of (default
	// 3).
	Reps int
	// Now supplies the wall clock (nil means testseed.Now).
	Now func() time.Time
}

// stabilizeCell certifies one (automaton, envelope) cell, best-of-reps
// timed.
func stabilizeCell(cfg StabilizeConfig, row StabilizeRow, build func() (ioa.Automaton, func(ioa.State) bool, stabilize.Envelope, error)) (StabilizeRow, error) {
	now := cfg.Now
	if now == nil {
		now = testseed.Now
	}
	opts := stabilize.Options{Workers: cfg.Workers, Limit: cfg.Limit}
	for r := 0; r < cfg.Reps; r++ {
		a, legit, env, err := build()
		if err != nil {
			return row, err
		}
		start := now()
		cert, err := stabilize.Certify(context.Background(), a, legit, env, opts)
		elapsed := now().Sub(start).Nanoseconds()
		if err != nil {
			return row, err
		}
		if row.NS == 0 || elapsed < row.NS {
			row.NS = elapsed
		}
		row.EnvelopeStates = cert.EnvelopeStates
		row.States = cert.States
		row.Stabilizing = cert.Stabilizing()
		row.Closed = cert.Closed
		row.Converges = cert.Converges
		row.Bounded = cert.Bounded
		row.Bound = cert.K
		row.MeanRounds = cert.MeanRounds
	}
	return row, nil
}

// spotEnvelope streams every single-coordinate corruption of every
// state the ring reaches from its legitimate start — the transient
// bit-flip envelope, much smaller than the full K^n one. Certify
// deduplicates, so the uncorrupted states it also yields are harmless.
type spotEnvelope struct {
	r   *ring.DijkstraRing
	eng *explore.Engine
}

func (e spotEnvelope) Name() string { return "single-corruption" }

func (e spotEnvelope) Visit(ctx context.Context, visit func(ioa.State) error) error {
	reached, err := e.eng.Reach(ctx, e.r.Auto)
	if err != nil {
		return err
	}
	for _, st := range reached {
		s := st.(*ring.DijkstraState)
		for i := 0; i < e.r.N; i++ {
			for v := 0; v < e.r.K; v++ {
				if err := visit(s.With(i, v)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// StabilizeSweep certifies Dijkstra rings over the configured sizes —
// full envelope at K=n, single-corruption spot envelope at K=n, and
// the K=n-2 full-envelope negative boundary (n >= 4) — plus the
// LeLann crash-corruption negative control at n=3.
func StabilizeSweep(cfg StabilizeConfig) ([]StabilizeRow, error) {
	if cfg.Reps <= 0 {
		cfg.Reps = 3
	}
	sizes := cfg.Sizes
	if len(sizes) == 0 {
		sizes = []int{3, 4, 5}
	}
	opts := stabilize.Options{Workers: cfg.Workers, Limit: cfg.Limit}
	eng := explore.New(explore.Options{Workers: cfg.Workers, Limit: cfg.Limit})
	var rows []StabilizeRow
	for _, n := range sizes {
		cells := []struct {
			k        int
			envelope func(r *ring.DijkstraRing) stabilize.Envelope
			name     string
		}{
			{n, func(r *ring.DijkstraRing) stabilize.Envelope {
				return r.StateDomain()
			}, "all-corruptions"},
			{n, func(r *ring.DijkstraRing) stabilize.Envelope {
				return spotEnvelope{r: r, eng: eng}
			}, "single-corruption"},
		}
		if n >= 4 {
			cells = append(cells, struct {
				k        int
				envelope func(r *ring.DijkstraRing) stabilize.Envelope
				name     string
			}{n - 2, func(r *ring.DijkstraRing) stabilize.Envelope {
				return r.StateDomain()
			}, "all-corruptions"})
		}
		for _, cell := range cells {
			cell := cell
			row, err := stabilizeCell(cfg,
				StabilizeRow{System: "dijkstra", N: n, K: cell.k, Envelope: cell.name},
				func() (ioa.Automaton, func(ioa.State) bool, stabilize.Envelope, error) {
					r, err := ring.NewDijkstra(n, cell.k)
					if err != nil {
						return nil, nil, nil, err
					}
					return r.Auto, r.Legit, cell.envelope(r), nil
				})
			if err != nil {
				return nil, fmt.Errorf("bench: stabilize dijkstra n=%d K=%d %s: %w", n, cell.k, cell.name, err)
			}
			rows = append(rows, row)
		}
	}

	row, err := stabilizeCell(cfg,
		StabilizeRow{System: "lelann", N: 3, Envelope: "crash(reset)"},
		func() (ioa.Automaton, func(ioa.State) bool, stabilize.Envelope, error) {
			return lelannCrashCell(opts)
		})
	if err != nil {
		return nil, fmt.Errorf("bench: stabilize lelann: %w", err)
	}
	rows = append(rows, row)
	return rows, nil
}

// lelannCrashCell builds the LeLann negative control: the 3-process
// token ring, with the corruption envelope generated by crash-restart
// (Reset) wrappers around every process, projected back into the
// clean composition's state space.
func lelannCrashCell(opts stabilize.Options) (ioa.Automaton, func(ioa.State) bool, stabilize.Envelope, error) {
	sys, err := ring.New(spec.DefaultUsers(3))
	if err != nil {
		return nil, nil, nil, err
	}
	comps := make([]ioa.Automaton, len(sys.Procs))
	for i, p := range sys.Procs {
		comps[i], err = faults.CrashRestart(p, "p"+strconv.Itoa(i), faults.Reset)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	crashed, err := ioa.Compose("ring-crash", comps...)
	if err != nil {
		return nil, nil, nil, err
	}
	env := domain.Reachable("crash(reset)", crashed, domain.TupleMap(domain.CrashInner),
		explore.Options{Workers: opts.Workers, Limit: opts.Limit})
	legit := func(s ioa.State) bool { return sys.TokenCount(s) == 1 }
	return sys.Composite, legit, env, nil
}

// PrintStabilize renders the sweep as a table.
func PrintStabilize(w io.Writer, rows []StabilizeRow) {
	title := "Self-stabilization certification — ring size × corruption envelope (best-of-reps)"
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	fmt.Fprintf(w, "%-9s %3s %3s %-18s %9s %8s %-7s %-7s %5s %7s %12s\n",
		"system", "n", "K", "envelope", "env", "closure", "closed", "conv", "k", "mean", "ns")
	for _, r := range rows {
		k := "-"
		if r.K > 0 {
			k = strconv.Itoa(r.K)
		}
		bound := "-"
		if r.Bounded {
			bound = strconv.Itoa(r.Bound)
		}
		conv := "FAIL"
		switch {
		case r.Converges && r.Bounded:
			conv = "ok"
		case r.Converges:
			conv = "fair"
		}
		closed := "FAIL"
		if r.Closed {
			closed = "ok"
		}
		fmt.Fprintf(w, "%-9s %3d %3s %-18s %9d %8d %-7s %-7s %5s %7.2f %12d\n",
			r.System, r.N, k, r.Envelope, r.EnvelopeStates, r.States,
			closed, conv, bound, r.MeanRounds, r.NS)
	}
	fmt.Fprintln(w)
}
