package bench

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/arbiter/dist"
	"repro/internal/arbiter/graphlevel"
	"repro/internal/arbiter/mapping"
	"repro/internal/arbiter/users"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/proof"
	"repro/internal/sim"
)

// A ChaosRow is one cell of a chaos sweep: one arbiter variant (plain
// A₃ or retry-hardened A₃ʳ) run under one seeded fault schedule, with
// every property of the correctness hierarchy re-checked along the
// sampled fair execution.
type ChaosRow struct {
	Profile  faults.Profile `json:"faults"`
	Seed     int64          `json:"seed"`
	Hardened bool           `json:"hardened"` // A₃ʳ when true, plain A₃ when false
	// Steps is the length of the closed-system run.
	Steps int `json:"steps"`
	// Grants counts grant(u) actions per user.
	Grants []int `json:"grants"`
	// Starved reports an observed no-lockout violation: some user's
	// final request stayed unanswered for the entire tail of the run.
	Starved bool `json:"starved"`
	// MutualExclusion reports that at most one process/user held the
	// resource in every reached state (token uniqueness).
	MutualExclusion bool `json:"mutual_exclusion"`
	// Lemma35, Lemma36, and Lemma41 report whether the graph-level
	// invariants (single grant arrow; requests point to the root;
	// buffer coherence) held in the h₂-image of every reached state.
	Lemma35 bool `json:"lemma35"`
	Lemma36 bool `json:"lemma36"`
	Lemma41 bool `json:"lemma41"`
	// RefinesA2 reports that the possibilities mapping (h₂ for the
	// plain system, h₂ʳ for the hardened one) held along the sampled
	// execution; RefinesA1 that the corresponding A₂ execution lifted
	// through h₁ to the specification as well.
	RefinesA2 bool `json:"refines_a2"`
	RefinesA1 bool `json:"refines_a1"`
	// MaxPending is the worst number of steps any spec-level request
	// obligation stayed open (the untimed §3.4 latency analogue);
	// -1 when the run does not lift to the specification.
	MaxPending int `json:"max_pending"`
	// MaxOutage is the longest consecutive run of reached states in
	// which some per-state safety property (token uniqueness or a
	// Lemma 35/36/41 invariant) was violated — how long the system
	// stayed visibly corrupt before the faults washed out.
	MaxOutage int `json:"max_outage"`
	// MaxServiceGap is the longest span of steps during which some
	// user's request was pending and no grant fired at all (to
	// anyone) — how long service stopped, including the run's tail.
	MaxServiceGap int `json:"max_service_gap"`
	// RecoverWithin echoes the acceptance window k from the config;
	// Recovered is the cell's recovery verdict, MaxOutage <= k and
	// MaxServiceGap <= k. Both are meaningful only when the config set
	// RecoverWithin > 0.
	RecoverWithin int  `json:"recover_within"`
	Recovered     bool `json:"recovered"`
}

// ChaosConfig parameterizes a chaos sweep.
type ChaosConfig struct {
	Tree *graph.Tree
	// Holder is the initially-holding arbiter node.
	Holder int
	// Profiles are the fault profiles to sweep (include the zero
	// profile for a fault-free baseline).
	Profiles []faults.Profile
	// Seeds drive the deterministic fault schedules.
	Seeds []int64
	// Steps bounds each closed-system run.
	Steps int
	// RecoverWithin, when positive, turns each cell into a
	// recovers-within-k acceptance check: the cell passes
	// (Recovered=true) iff no safety outage and no service gap lasts
	// more than RecoverWithin steps. 0 disables the verdict.
	RecoverWithin int
}

// DefaultChaosProfiles is the standard sweep: fault-free baseline,
// loss alone, duplication alone, the combined lossy+duplicating
// channel of the acceptance scenario, and crash-restart-heavy burst
// loss (crash windows on the message channels).
func DefaultChaosProfiles() []faults.Profile {
	return []faults.Profile{
		{},
		{Drop: 0.1},
		{Drop: 0.3},
		{Duplicate: 0.15},
		{Drop: 0.3, Duplicate: 0.15},
		{Crash: 0.1},
	}
}

// Chaos sweeps profiles × seeds × {A₃, A₃ʳ} and reports, per cell,
// which properties of the hierarchical proof survive: the empirical
// ones (grants, starvation, mutual exclusion), the graph-level
// invariants of Lemmas 35/36/41 evaluated in the h₂-image of every
// reached state, and the refinement checks h₂/h₂ʳ and h₁ along the
// sampled fair execution.
func Chaos(cfg ChaosConfig) ([]ChaosRow, error) {
	var rows []ChaosRow
	for _, prof := range cfg.Profiles {
		for _, seed := range cfg.Seeds {
			for _, hardened := range []bool{false, true} {
				row, err := chaosCell(cfg, prof, seed, hardened)
				if err != nil {
					return nil, fmt.Errorf("bench: chaos %s seed=%d hardened=%t: %w",
						prof, seed, hardened, err)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// level3Chain builds the hierarchy over A₃ʳ (hardened) or A₃ on t,
// inj applied to the channels; SystemOn and the chaos cells both start
// from it.
func level3Chain(t *graph.Tree, holder int, inj faults.Injection, hardened bool) (*mapping.Chain, error) {
	if hardened {
		sys, err := dist.NewHardened(t, holder, inj)
		if err != nil {
			return nil, err
		}
		return mapping.NewChain(sys)
	}
	sys, err := dist.NewWithFaults(t, holder, inj)
	if err != nil {
		return nil, err
	}
	return mapping.NewChain(sys)
}

func chaosCell(cfg ChaosConfig, prof faults.Profile, seed int64, hardened bool) (ChaosRow, error) {
	row := ChaosRow{Profile: prof, Seed: seed, Hardened: hardened, MaxPending: -1}
	t := cfg.Tree
	sched, err := faults.NewSchedule(seed, prof)
	if err != nil {
		return row, err
	}
	c, err := level3Chain(t, cfg.Holder, faults.Injection{Sched: sched}, hardened)
	if err != nil {
		return row, err
	}

	names := userNames(t)
	env := users.HeavyLoad(names)
	closed, err := ioa.Compose("chaos", append([]ioa.Automaton{c.Arb}, users.Automata(env)...)...)
	if err != nil {
		return row, err
	}
	x, err := sim.Run(closed, &sim.RoundRobin{}, cfg.Steps, nil)
	if err != nil {
		return row, err
	}
	row.Steps = x.Len()

	// Grants and starvation from the action trace.
	row.Grants = make([]int, len(names))
	lastReq := make([]int, len(names))
	lastGrant := make([]int, len(names))
	for u := range names {
		lastReq[u], lastGrant[u] = -1, -1
	}
	for i, act := range x.Acts {
		for u, name := range names {
			switch act {
			case ioa.Act("request", name):
				lastReq[u] = i
			case ioa.Act("grant", name):
				lastGrant[u] = i
				row.Grants[u]++
			}
		}
	}
	// A pending request is starved if service to this user has stopped
	// for good: either the run halted quiescent with the request
	// unanswered (nothing is enabled any more, e.g. the token was
	// destroyed by a dropped grant message), or the user saw no grant
	// in the entire second half of the run while the arbiter passed
	// the request over many times (grants kept flowing to others).
	// The passing-over threshold separates lockout from degradation:
	// faulty channels can stretch one wait to a few rotations, but
	// only a lost obligation explains dozens with none to this user:
	// ten full rotations is an order of magnitude past the worst delay
	// observed on conforming runs, two below what lockout produces.
	threshold := 10 * len(names)
	halted := x.Len() < cfg.Steps
	for u := range names {
		if lastReq[u] < 0 || lastGrant[u] >= lastReq[u] {
			continue
		}
		if halted {
			row.Starved = true
			continue
		}
		if lastGrant[u] >= x.Len()/2 {
			continue
		}
		grantsSince := 0
		for i := lastReq[u]; i < x.Len(); i++ {
			if x.Acts[i].Base() == "grant" {
				grantsSince++
			}
		}
		if grantsSince >= threshold {
			row.Starved = true
		}
	}

	// Lift the run to an execution of f₂(A₃) resp. f₂(A₃ʳ), and as far
	// up the hierarchy as the links hold.
	// A link that fails is reported below, not failed.
	l, err := c.Lift(x)
	if l == nil {
		return row, err
	}

	// Safety in every reached state: token uniqueness directly on the
	// process states, Lemmas 35/36/41 in the h₂-image.
	okAt, err := row.safetyScan(c, l.X3.States)
	if err != nil {
		return row, err
	}

	// Recovery: the longest consecutive stretch of unsafe states, and
	// the longest stretch of steps with a request pending and no grant
	// fired. With RecoverWithin set, both must fit the window.
	row.MaxOutage = longestFalseRun(okAt)
	row.MaxServiceGap = chaosServiceGap(names, x.Acts)
	row.RecoverWithin = cfg.RecoverWithin
	if cfg.RecoverWithin > 0 {
		row.Recovered = row.MaxOutage <= cfg.RecoverWithin && row.MaxServiceGap <= cfg.RecoverWithin
	}

	// Refinement of A₂ along the execution, then of A₁, then the
	// spec-level latency of request obligations.
	row.RefinesA2, row.RefinesA1 = l.X2 != nil, l.X1 != nil
	if l.X1 == nil {
		return row, nil
	}
	var goals []*proof.LeadsTo
	for u := range names {
		goals = append(goals, chaosGrantResponds(names, u))
	}
	row.MaxPending = 0
	for _, lat := range proof.MaxLatency(l.X1, goals) {
		if lat > row.MaxPending {
			row.MaxPending = lat
		}
	}
	return row, nil
}

// safetyScan evaluates token uniqueness and the Lemma 35/36/41 graph
// invariants over every state into the row's four verdicts. It returns
// the per-state conjunction okAt, from which the recovery analysis
// measures outage lengths.
func (row *ChaosRow) safetyScan(c *mapping.Chain, states []ioa.State) ([]bool, error) {
	row.MutualExclusion, row.Lemma35, row.Lemma36, row.Lemma41 = true, true, true, true
	asm, t := c.Sys.Base(), c.Tree
	okAt := make([]bool, len(states))
	for i, st := range states {
		holders := 0
		for _, a := range asm.Order {
			ps, err := asm.ProcStateOf(st, a)
			if err != nil {
				return nil, err
			}
			if ps.Holding() {
				holders++
				continue
			}
			if v := t.Neighbors(a)[ps.LastForward()]; t.Node(v).Kind == graph.User {
				holders++
			}
		}
		img, err := c.H2Map.Apply(st)
		if err != nil {
			return nil, err
		}
		mutex := holders <= 1
		l35, l36, l41 := graphlevel.SingleRoot(img), graphlevel.RequestsPointToRoot(img), graphlevel.BufferInvariant(img)
		okAt[i] = mutex && l35 && l36 && l41
		row.MutualExclusion, row.Lemma35 = row.MutualExclusion && mutex, row.Lemma35 && l35
		row.Lemma36, row.Lemma41 = row.Lemma36 && l36, row.Lemma41 && l41
	}
	return okAt, nil
}

// longestFalseRun measures the longest consecutive stretch of false
// entries.
func longestFalseRun(ok []bool) int {
	cur, max := 0, 0
	for _, b := range ok {
		if b {
			cur = 0
			continue
		}
		cur++
		if cur > max {
			max = cur
		}
	}
	return max
}

// chaosServiceGap measures the longest span of steps during which
// some user's request was pending and no grant action fired at all. A
// grant to anyone ends the gap (the arbiter is serving); a tail of
// unserved pending requests counts in full.
func chaosServiceGap(names []string, acts []ioa.Action) int {
	pending := make([]bool, len(names))
	cur, max := 0, 0
	for _, act := range acts {
		any := false
		for _, p := range pending {
			if p {
				any = true
				break
			}
		}
		if any && act.Base() != "grant" {
			cur++
			if cur > max {
				max = cur
			}
		} else {
			cur = 0
		}
		for u, name := range names {
			switch act {
			case ioa.Act("request", name):
				pending[u] = true
			case ioa.Act("grant", name):
				pending[u] = false
			}
		}
	}
	return max
}

// chaosGrantResponds is the spec-level no-lockout condition for user
// u: a state with u requesting obliges a later grant(u).
func chaosGrantResponds(names []string, u int) *proof.LeadsTo {
	name := names[u]
	return &proof.LeadsTo{
		Name: "GrRes(" + name + ")",
		S: func(st ioa.State) bool {
			s, ok := st.(interface{ Requesting(int) bool })
			return ok && s.Requesting(u)
		},
		T: func(act ioa.Action) bool { return act == ioa.Act("grant", name) },
	}
}

// system names the cell's arbiter variant.
func (r ChaosRow) system() string {
	if r.Hardened {
		return "A3r"
	}
	return "A3"
}

// correct reports that every property of the hierarchy survived the
// cell's run.
func (r ChaosRow) correct() bool {
	return !r.Starved && r.MutualExclusion && r.Lemma35 && r.Lemma36 && r.Lemma41 && r.RefinesA2 && r.RefinesA1
}

// chaosSweep is E14 over the Figure 3.2 tree. Fault-free cells and
// every A₃ʳ cell must keep the whole hierarchy, and a fault-free cell
// must recover within the window; the plain-A₃ cells the faults break
// are the negative control.
var chaosSweep = sweepOf[ChaosRow]{
	name:  "chaos",
	title: "Chaos sweep — fault rates vs surviving correctness properties",
	rows: func(cfg SweepConfig) ([]ChaosRow, error) {
		tr, err := graph.Figure32()
		if err != nil {
			return nil, err
		}
		steps, seeds := 4000, []int64{1, 2, 5}
		if cfg.Quick {
			steps, seeds = 2000, seeds[:1]
		}
		return Chaos(ChaosConfig{Tree: tr, Profiles: DefaultChaosProfiles(), Seeds: seeds, Steps: steps, RecoverWithin: cfg.RecoverWithin})
	},
	cols: []column[ChaosRow]{
		{"faults", -22, func(r ChaosRow) string { return r.Profile.String() }},
		{"seed", 5, func(r ChaosRow) string { return strconv.FormatInt(r.Seed, 10) }},
		{"sys", -4, ChaosRow.system},
		{"steps", 6, func(r ChaosRow) string { return strconv.Itoa(r.Steps) }},
		{"grants", -12, func(r ChaosRow) string { return strings.Trim(fmt.Sprint(r.Grants), "[]") }},
		{"starved", 7, func(r ChaosRow) string { return strconv.FormatBool(r.Starved) }},
		{"ME", 4, func(r ChaosRow) string { return okFail(r.MutualExclusion) }},
		{"L35", 4, func(r ChaosRow) string { return okFail(r.Lemma35) }},
		{"L36", 4, func(r ChaosRow) string { return okFail(r.Lemma36) }},
		{"L41", 4, func(r ChaosRow) string { return okFail(r.Lemma41) }},
		{"h2", 4, func(r ChaosRow) string { return okFail(r.RefinesA2) }},
		{"h1", 4, func(r ChaosRow) string { return okFail(r.RefinesA1) }},
		{"maxpend", 8, func(r ChaosRow) string { return orDash(r.MaxPending >= 0, strconv.Itoa(r.MaxPending)) }},
		{"outage", 7, func(r ChaosRow) string { return strconv.Itoa(r.MaxOutage) }},
		{"gap", 5, func(r ChaosRow) string { return strconv.Itoa(r.MaxServiceGap) }},
		{"recov", 6, func(r ChaosRow) string { return orDash(r.RecoverWithin > 0, okFail(r.Recovered)) }},
	},
	check: func(r ChaosRow) (key, fault string) {
		k := r.RecoverWithin
		switch {
		case r.Recovered != (k > 0 && r.MaxOutage <= k && r.MaxServiceGap <= k):
			fault = fmt.Sprintf("recovered=%t with outage %d, gap %d, window %d", r.Recovered, r.MaxOutage, r.MaxServiceGap, k)
		case r.RefinesA1 && !r.RefinesA2, r.RefinesA1 != (r.MaxPending >= 0):
			fault = fmt.Sprintf("h1=%t with h2=%t, maxpend %d", r.RefinesA1, r.RefinesA2, r.MaxPending)
		case (r.Profile.Zero() || r.Hardened) && !r.correct(), r.Profile.Zero() && k > 0 && !r.Recovered:
			fault = "a fault-free or hardened cell lost a property of the hierarchy, or a fault-free one did not recover"
		}
		return fmt.Sprintf("%s/seed%d/%s", r.Profile, r.Seed, r.system()), fault
	},
	control: func(r ChaosRow) bool { return !r.Hardened && !r.Profile.Zero() && !r.correct() },
}
