package bench

// Self-stabilization certification sweep (E19): Dijkstra's K-state
// token ring certified over ring size × corruption envelope, plus the
// LeLann token ring under crash corruption as the negative control.
// Each row records the certifier's verdicts (closure, convergence,
// boundedness), the measured worst-case rounds-to-legitimacy bound,
// and best-of-reps wall-clock time. Rows are written to
// BENCH_stabilize.json by arbiterbench -sweep stabilize.

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/arbiter/spec"
	"repro/internal/domain"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/ring"
	"repro/internal/stabilize"
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

// stabilizeCell certifies one (automaton, envelope) cell, best-of-reps
// timed.
func stabilizeCell(cfg SweepConfig, row StabilizeRow, build func() (ioa.Automaton, func(ioa.State) bool, stabilize.Envelope, error)) (StabilizeRow, error) {
	opts := cfg.explore()
	var cert *stabilize.Certificate
	ns, err := cfg.bestOf(func() (func() error, error) {
		a, legit, env, err := build()
		if err != nil {
			return nil, err
		}
		return func() (err error) {
			cert, err = stabilize.Certify(context.Background(), a, legit, env, opts)
			return err
		}, nil
	})
	if err != nil {
		return row, err
	}
	row.NS = ns
	row.EnvelopeStates = cert.EnvelopeStates
	row.States = cert.States
	row.Stabilizing = cert.Stabilizing()
	row.Closed = cert.Closed
	row.Converges = cert.Converges
	row.Bounded = cert.Bounded
	row.Bound = cert.K
	row.MeanRounds = cert.MeanRounds
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

// stabilizeRows certifies Dijkstra rings of size 3..cfg.Sizes — full
// envelope at K=n, single-corruption spot envelope at K=n, and the
// K=n-2 full-envelope negative boundary (n >= 4) — plus the LeLann
// crash-corruption negative control at n=3.
func stabilizeRows(cfg SweepConfig) ([]StabilizeRow, error) {
	eng := explore.New(cfg.explore())
	full := func(r *ring.DijkstraRing) stabilize.Envelope { return r.StateDomain() }
	spot := func(r *ring.DijkstraRing) stabilize.Envelope { return spotEnvelope{r: r, eng: eng} }
	var rows []StabilizeRow
	dijkstra := func(n, k int, name string, envelope func(*ring.DijkstraRing) stabilize.Envelope) error {
		row, err := stabilizeCell(cfg,
			StabilizeRow{System: "dijkstra", N: n, K: k, Envelope: name},
			func() (ioa.Automaton, func(ioa.State) bool, stabilize.Envelope, error) {
				r, err := ring.NewDijkstra(n, k)
				if err != nil {
					return nil, nil, nil, err
				}
				return r.Auto, r.Legit, envelope(r), nil
			})
		if err != nil {
			return fmt.Errorf("bench: stabilize dijkstra n=%d K=%d %s: %w", n, k, name, err)
		}
		rows = append(rows, row)
		return nil
	}
	for n := 3; n <= cfg.Sizes; n++ {
		if err := dijkstra(n, n, "all-corruptions", full); err != nil {
			return nil, err
		}
		if err := dijkstra(n, n, "single-corruption", spot); err != nil {
			return nil, err
		}
		if n >= 4 {
			if err := dijkstra(n, n-2, "all-corruptions", full); err != nil {
				return nil, err
			}
		}
	}

	row, err := stabilizeCell(cfg,
		StabilizeRow{System: "lelann", N: 3, Envelope: "crash(reset)"},
		func() (ioa.Automaton, func(ioa.State) bool, stabilize.Envelope, error) {
			return lelannCrashCell(3, cfg.explore())
		})
	if err != nil {
		return nil, fmt.Errorf("bench: stabilize lelann: %w", err)
	}
	rows = append(rows, row)
	return rows, nil
}

// lelannCrashCell builds the LeLann negative control: the n-process
// token ring, with the corruption envelope generated by crash-restart
// (Reset) wrappers around every process — the reachable states of the
// wrapped ring, explored under opts, in BFS order — projected back
// into the clean composition's state space. A lost token
// never regenerates, so the case must fail certification.
func lelannCrashCell(n int, opts explore.Options) (ioa.Automaton, func(ioa.State) bool, stabilize.Envelope, error) {
	sys, err := ring.New(spec.DefaultUsers(n))
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
	env := domain.Reachable("crash(reset)", crashed, domain.TupleMap(domain.CrashInner), opts)
	legit := func(s ioa.State) bool { return sys.TokenCount(s) == 1 }
	return sys.Composite, legit, env, nil
}

// dijkstraCell builds the positive case: Dijkstra's K-state token
// ring with n machines and modulus K = n, certified from its full K^n
// corruption envelope.
func dijkstraCell(n int, _ explore.Options) (ioa.Automaton, func(ioa.State) bool, stabilize.Envelope, error) {
	r, err := ring.NewDijkstra(n, n)
	if err != nil {
		return nil, nil, nil, err
	}
	return r.Auto, r.Legit, r.StateDomain(), nil
}

// okFail renders a verdict column.
func okFail(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}

// orDash renders cell, or "-" in a column that does not apply to the
// row.
func orDash(applies bool, cell string) string {
	if applies {
		return cell
	}
	return "-"
}

// stabilizeSweep is the E19 sweep.
var stabilizeSweep = sweepOf[StabilizeRow]{
	name:  "stabilize",
	title: "Self-stabilization certification — ring size × corruption envelope (best-of-reps)",
	reps:  3,
	rows:  stabilizeRows,
	cols: []column[StabilizeRow]{
		{"system", -9, func(r StabilizeRow) string { return r.System }},
		{"n", 3, func(r StabilizeRow) string { return strconv.Itoa(r.N) }},
		{"K", 3, func(r StabilizeRow) string { return orDash(r.K > 0, strconv.Itoa(r.K)) }},
		{"envelope", -18, func(r StabilizeRow) string { return r.Envelope }},
		{"env", 9, func(r StabilizeRow) string { return strconv.Itoa(r.EnvelopeStates) }},
		{"closure", 8, func(r StabilizeRow) string { return strconv.Itoa(r.States) }},
		{"closed", -7, func(r StabilizeRow) string { return okFail(r.Closed) }},
		{"conv", -7, func(r StabilizeRow) string {
			if r.Converges && !r.Bounded {
				return "fair"
			}
			return okFail(r.Converges)
		}},
		{"k", 5, func(r StabilizeRow) string { return orDash(r.Bounded, strconv.Itoa(r.Bound)) }},
		{"mean", 7, func(r StabilizeRow) string { return fmt.Sprintf("%.2f", r.MeanRounds) }},
		{"ns", 12, func(r StabilizeRow) string { return strconv.FormatInt(r.NS, 10) }},
	},
	check: func(r StabilizeRow) (key, fault string) {
		key = fmt.Sprintf("%s/n%d/%s", r.System, r.N, r.Envelope)
		if r.Stabilizing != (r.Closed && r.Converges) {
			fault = fmt.Sprintf("stabilizing=%t inconsistent with closed=%t && converges=%t",
				r.Stabilizing, r.Closed, r.Converges)
		}
		return key, fault
	},
	control: func(r StabilizeRow) bool { return !r.Stabilizing },
}
