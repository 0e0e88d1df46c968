// Package bench is the experiment harness for the §3.4 complexity
// analysis: it runs b-bounded timed executions of the arbiter at the
// A₂ level of abstraction (exactly the level at which the paper
// analyzes response time), measures responses, and regenerates the
// paper's quantitative claims:
//
//   - Theorem 50: light-load response ≤ 2bd (d = diameter);
//   - Theorem 52: heavy-load response ≤ 3be − b (e = edges);
//   - the closing remark: combined grant+request messages ⇒ ≈ 2be;
//   - the comparison against the [LF81] round-robin and tournament
//     arbiters (Θ(n)/Θ(n) and Θ(log n)/Θ(n log n) respectively).
package bench

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/arbiter/graphlevel"
	"repro/internal/arbiter/users"
	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/sim"
)

// Load selects the request pattern.
type Load int

// Loads.
const (
	// Light: a single user requests, repeatedly.
	Light Load = iota + 1
	// Heavy: every user requests continuously.
	Heavy
)

// Result summarizes one timed arbiter run.
type Result struct {
	// Stats aggregates response times (request(u) to grant(u)), in
	// the same time units as b.
	Stats baseline.Stats
	// First is the response time of the very first grant.
	First float64
	// Steps is the number of automaton steps executed.
	Steps int
	// Duration is the simulated end time.
	Duration float64
	// EdgeMsgs counts arbiter-internal arrow movements (messages
	// crossing internal edges). The §3.4 closing remark's 3-vs-2
	// messages-per-edge argument shows up here: the combined variant
	// sends about a third fewer messages under heavy load.
	EdgeMsgs int
	// Tx is the recorded timed execution (when Config.Record is set).
	Tx *sim.TimedExecution
}

// Config parameterizes a timed arbiter run.
type Config struct {
	Tree *graph.Tree
	// Holder is the arbiter node initially holding the resource.
	Holder int
	Load   Load
	// Active is the requesting user index (user nodes in ID order)
	// under Light load.
	Active int
	// B is the per-class time bound.
	B float64
	// Grants is how many grants to run before stopping.
	Grants int
	// Combine enables the combined grant+request optimization.
	Combine bool
	Seed    int64
	// Record keeps the full timed execution on the Result for
	// post-hoc condition checking (costs memory on long runs).
	Record bool
}

// Run executes a b-bounded timed execution of f₁(A₂) composed with
// user automata under the configured load, using the lazy (worst-case)
// scheduler, and returns response-time measurements.
func Run(cfg Config) (*Result, error) {
	t := cfg.Tree
	rootFrom := t.Neighbors(cfg.Holder)[0]
	a2, err := graphlevel.NewWithOptions(t, rootFrom, cfg.Holder, graphlevel.Options{
		CombineGrantRequest: cfg.Combine,
	})
	if err != nil {
		return nil, err
	}
	// One fairness class per action: the b-bounded discipline then
	// matches the per-condition bounds BndedFwdReq₂/BndedFwdGr₂ of
	// §3.4 exactly.
	arb, err := ioa.Rename(a2.Relabel(perAction), graphlevel.F1(t))
	if err != nil {
		return nil, err
	}
	closed, err := underLoad("timed-arbiter", []ioa.Automaton{arb}, userNames(t), cfg.Load, cfg.Active)
	if err != nil {
		return nil, err
	}

	res := &Result{First: math.NaN()}
	tx, err := res.timed(closed, cfg.B, cfg.Seed, 200*cfg.Grants*(t.EdgeCount()+2), cfg.Grants, res.specObserver())
	if err != nil {
		return nil, err
	}
	if cfg.Record {
		res.Tx = tx
	}
	return res, nil
}

// perAction relabels an automaton to one fairness class per action.
func perAction(a ioa.Action) string { return string(a) }

// underLoad closes comps with the user automata of the load — active
// is the one requester under Light — relabelled per action like the
// arbiter they face.
func underLoad(name string, comps []ioa.Automaton, names []string, load Load, active int) (ioa.Automaton, error) {
	var env []*ioa.Prog
	switch load {
	case Light:
		env = users.LightLoad(names, active)
	case Heavy:
		env = users.HeavyLoad(names)
	default:
		return nil, fmt.Errorf("bench: unknown load %d", load)
	}
	for _, u := range env {
		comps = append(comps, u.Relabel(perAction))
	}
	return ioa.Compose(name, comps...)
}

// served records one grant answered resp after its request.
func (res *Result) served(resp float64) {
	res.Stats.Grants++
	res.Stats.Sum += resp
	if resp > res.Stats.Max {
		res.Stats.Max = resp
	}
	if math.IsNaN(res.First) {
		res.First = resp
	}
}

// specObserver is the observer of a closed system speaking spec
// actions: it times each user's request to its grant and counts the
// two-parameter (edge) actions as messages.
func (res *Result) specObserver() func(*ioa.Execution, float64) {
	pending := make(map[string]float64)
	return func(x *ioa.Execution, now float64) {
		act := x.Acts[len(x.Acts)-1]
		if len(act.Params()) != 1 {
			if len(act.Params()) == 2 {
				res.EdgeMsgs++
			}
			return
		}
		u := act.Params()[0]
		switch act.Base() {
		case "request":
			if _, dup := pending[u]; !dup {
				pending[u] = now
			}
		case "grant":
			if t0, ok := pending[u]; ok {
				res.served(now - t0)
				delete(pending, u)
			}
		}
	}
}

// timed runs closed under the b-bounded lazy-adversary discipline —
// every class firing within b of becoming continuously enabled, as
// late as allowed — until observe has recorded grants responses, and
// fails if maxSteps steps do not produce them.
func (res *Result) timed(closed ioa.Automaton, b float64, seed int64, maxSteps, grants int, observe func(*ioa.Execution, float64)) (*sim.TimedExecution, error) {
	runner := &sim.TimedRunner{
		Auto:    closed,
		Bounds:  sim.UniformBounds(b),
		Tempo:   sim.Lazy,
		Seed:    seed,
		Observe: observe,
	}
	tx, err := runner.Run(maxSteps, func(*sim.TimedExecution) bool { return res.Stats.Grants >= grants })
	if err != nil {
		return nil, err
	}
	if res.Stats.Grants < grants {
		return nil, fmt.Errorf("bench: %s produced %d/%d grants in %d steps", closed.Name(), res.Stats.Grants, grants, tx.Exec.Len())
	}
	res.Steps = tx.Exec.Len()
	res.Duration = tx.Now()
	return tx, nil
}

// FarthestHolderFrom returns the arbiter node maximizing tree distance
// from user u — the adversarial initial placement for light-load
// response measurements.
func FarthestHolderFrom(t *graph.Tree, u int) int {
	best, bestD := -1, -1
	for _, a := range t.NodesOf(graph.Arbiter) {
		if d := t.PathLen(u, a); d > bestD {
			best, bestD = a, d
		}
	}
	return best
}

// A Row is one line of a Theorem 50 or Theorem 52 table.
type Row struct {
	// Variant names the run within its sweep — the tree family
	// (theorem50) or the message discipline (theorem52); the sweeps fill
	// it in.
	Variant string `json:"variant,omitempty"`
	N       int    `json:"n"` // number of users
	D       int    `json:"d"` // graph diameter
	E       int    `json:"e"` // graph edges
	// Max, Mean and First are observed responses in units of b.
	Max     float64 `json:"max"`
	Mean    float64 `json:"mean"`
	First   float64 `json:"first"`
	Bound   float64 `json:"bound"`  // the paper's bound for this configuration
	WithinB bool    `json:"within"` // observed ≤ bound
	// MsgsPerGrant is the mean number of internal-edge messages per
	// grant (populated by heavy-load sweeps).
	MsgsPerGrant float64 `json:"msgs_per_grant,omitempty"`
}

// lightRun is the Theorem 50 configuration: the first user alone
// requests, three times, with the holder placed farthest from it.
func lightRun(t *graph.Tree, b float64, seed int64) (*Result, error) {
	holder := FarthestHolderFrom(t, t.NodesOf(graph.User)[0])
	return Run(Config{Tree: t, Holder: holder, Load: Light, Active: 0, B: b, Grants: 3, Seed: seed})
}

// heavyRun is the Theorem 52 configuration: every user requests
// forever, the first arbiter node holding.
func heavyRun(t *graph.Tree, b float64, grants int, combine bool, seed int64) (*Result, error) {
	holder := t.NodesOf(graph.Arbiter)[0]
	return Run(Config{Tree: t, Holder: holder, Load: Heavy, B: b, Grants: grants, Combine: combine, Seed: seed})
}

// Theorem50 sweeps light-load first-response times over trees built by
// build (e.g. graph.BinaryTree or a line builder), checking the
// 2bd bound of Theorem 50.
func Theorem50(sizes []int, b float64, build func(int) (*graph.Tree, error), seed int64) ([]Row, error) {
	var rows []Row
	for _, n := range sizes {
		t, err := build(n)
		if err != nil {
			return nil, err
		}
		res, err := lightRun(t, b, seed)
		if err != nil {
			return nil, err
		}
		bound := 2 * b * float64(t.Diameter())
		rows = append(rows, Row{
			N: n, D: t.Diameter(), E: t.EdgeCount(),
			Max: res.Stats.Max, Mean: res.Stats.Mean(), First: res.First,
			Bound: bound, WithinB: res.Stats.Max <= bound+1e-9,
		})
	}
	return rows, nil
}

// Theorem52 sweeps heavy-load maximum response times, checking the
// 3be − b bound of Theorem 52. When combine is true the combined
// grant+request variant is used and the bound tightens to 2be.
func Theorem52(sizes []int, b float64, combine bool, seed int64) ([]Row, error) {
	var rows []Row
	for _, n := range sizes {
		t, err := graph.BinaryTree(n)
		if err != nil {
			return nil, err
		}
		res, err := heavyRun(t, b, 6*n, combine, seed)
		if err != nil {
			return nil, err
		}
		e := float64(t.EdgeCount())
		bound := 3*b*e - b
		if combine {
			bound = 2 * b * e
		}
		rows = append(rows, Row{
			N: n, D: t.Diameter(), E: t.EdgeCount(),
			Max: res.Stats.Max, Mean: res.Stats.Mean(), First: res.First,
			Bound: bound, WithinB: res.Stats.Max <= bound+1e-9,
			MsgsPerGrant: float64(res.EdgeMsgs) / float64(res.Stats.Grants),
		})
	}
	return rows, nil
}

// CompareRow is one line of the §3.4 arbiter comparison, extended with
// the token-ring arbiter of internal/ring.
type CompareRow struct {
	N          int     `json:"n"`
	SchonLight float64 `json:"schonhage_light"`   // Schönhage max response, light load
	SchonHeavy float64 `json:"schonhage_heavy"`   // Schönhage max response, heavy load
	RRLight    float64 `json:"round_robin_light"` // round-robin
	RRHeavy    float64 `json:"round_robin_heavy"`
	TournLight float64 `json:"tournament_light"` // tournament tree
	TournHeavy float64 `json:"tournament_heavy"`
	RingLight  float64 `json:"ring_light"` // token ring
	RingHeavy  float64 `json:"ring_heavy"`
}

// Comparison regenerates the arbiter comparison of §3.4 ¶1 over binary
// trees with n users.
func Comparison(sizes []int, b float64, seed int64) ([]CompareRow, error) {
	var rows []CompareRow
	for _, n := range sizes {
		t, err := graph.BinaryTree(n)
		if err != nil {
			return nil, err
		}
		light, err := lightRun(t, b, seed)
		if err != nil {
			return nil, err
		}
		heavy, err := heavyRun(t, b, 6*n, false, seed)
		if err != nil {
			return nil, err
		}
		rrL, err := baseline.RoundRobin(n, 3, baseline.LightLoad(n, n-1))
		if err != nil {
			return nil, err
		}
		rrH, err := baseline.RoundRobin(n, 6*n, baseline.HeavyLoad(n))
		if err != nil {
			return nil, err
		}
		toL, err := baseline.Tournament(n, 3, baseline.LightLoad(n, n-1))
		if err != nil {
			return nil, err
		}
		toH, err := baseline.Tournament(n, 6*n, baseline.HeavyLoad(n))
		if err != nil {
			return nil, err
		}
		ringL, err := RunRing(n, Light, b, 3, seed)
		if err != nil {
			return nil, err
		}
		ringH, err := RunRing(n, Heavy, b, 6*n, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, CompareRow{
			N:          n,
			SchonLight: light.Stats.Max, SchonHeavy: heavy.Stats.Max,
			RRLight: rrL.Max, RRHeavy: rrH.Max,
			TournLight: toL.Max, TournHeavy: toH.Max,
			RingLight: ringL.Stats.Max, RingHeavy: ringH.Stats.Max,
		})
	}
	return rows, nil
}

// theoremSweep is a sweep of theorem Rows: one run per variant, named in
// the lead column.
func theoremSweep(name, title, lead string, variants []string, run func(cfg SweepConfig, variant string) ([]Row, error)) sweepOf[Row] {
	return sweepOf[Row]{
		name: name, title: title,
		rows: func(cfg SweepConfig) ([]Row, error) {
			var rows []Row
			for _, v := range variants {
				rs, err := run(cfg, v)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", v, err)
				}
				for i := range rs {
					rs[i].Variant = v
				}
				rows = append(rows, rs...)
			}
			return rows, nil
		},
		cols: []column[Row]{
			{lead, -8, func(r Row) string { return r.Variant }},
			{"n", 4, func(r Row) string { return strconv.Itoa(r.N) }},
			{"d", 4, func(r Row) string { return strconv.Itoa(r.D) }},
			{"e", 4, func(r Row) string { return strconv.Itoa(r.E) }},
			{"first", 10, func(r Row) string { return tenths(r.First) }},
			{"mean", 10, func(r Row) string { return tenths(r.Mean) }},
			{"max", 10, func(r Row) string { return tenths(r.Max) }},
			{"bound", 10, func(r Row) string { return tenths(r.Bound) }},
			{"msgs/gr", 9, func(r Row) string { return tenths(r.MsgsPerGrant) }},
			{"ok", 0, func(r Row) string { return strconv.FormatBool(r.WithinB) }},
		},
		check: func(r Row) (key, fault string) {
			return fmt.Sprintf("%s/n%d", r.Variant, r.N), boundFault(r.Max, r.Bound, r.WithinB)
		},
	}
}

// theorem50Sweep is E1: binary trees, and line graphs, where the bound
// is nearly tight.
var theorem50Sweep = theoremSweep("theorem50", "Theorem 50 — light load, binary trees and line graphs (bound 2bd)",
	"tree", []string{"binary", "line"}, func(cfg SweepConfig, tree string) ([]Row, error) {
		build := map[string]func(int) (*graph.Tree, error){"binary": graph.BinaryTree, "line": graph.Line}
		return Theorem50(cfg.sizes(), cfg.B, build[tree], cfg.Seed)
	})

// theorem52Sweep is E2 and E3: binary trees, plain and with the combined
// grant+request message of the §3.4 closing remark.
var theorem52Sweep = theoremSweep("theorem52", "Theorem 52 — heavy load, binary trees (bound 3be−b; combined grant+request 2be)",
	"variant", []string{"plain", "combined"}, func(cfg SweepConfig, variant string) ([]Row, error) {
		return Theorem52(cfg.sizes(), cfg.B, variant == "combined", cfg.Seed)
	})

// comparisonSweep is E4, each arbiter's light/heavy pair in one column.
// The row carries no bound; a response of zero is a run that served
// nothing.
var comparisonSweep = sweepOf[CompareRow]{
	name:  "comparison",
	title: "Arbiter comparison (max response, units of b; light/heavy load)",
	rows: func(cfg SweepConfig) ([]CompareRow, error) {
		return Comparison(cfg.sizes(), cfg.B, cfg.Seed)
	},
	cols: []column[CompareRow]{
		{"n", 4, func(r CompareRow) string { return strconv.Itoa(r.N) }},
		{"Schönhage", 12, func(r CompareRow) string { return fmt.Sprintf("%.0f/%.0f", r.SchonLight, r.SchonHeavy) }},
		{"round-robin", 12, func(r CompareRow) string { return fmt.Sprintf("%.0f/%.0f", r.RRLight, r.RRHeavy) }},
		{"tournament", 12, func(r CompareRow) string { return fmt.Sprintf("%.0f/%.0f", r.TournLight, r.TournHeavy) }},
		{"token ring", 12, func(r CompareRow) string { return fmt.Sprintf("%.0f/%.0f", r.RingLight, r.RingHeavy) }},
	},
	check: func(r CompareRow) (key, fault string) {
		if min(r.SchonLight, r.SchonHeavy, r.RRLight, r.RRHeavy, r.TournLight, r.TournHeavy, r.RingLight, r.RingHeavy) <= 0 {
			fault = "an arbiter recorded no response"
		}
		return fmt.Sprintf("n%d", r.N), fault
	},
}
