// Package sim executes input-output automata: untimed runs under fair
// scheduling policies, and timed b-bounded executions in the sense of
// §3.4 of the paper, where every continuously-enabled fairness class
// performs an action within a bound b of becoming enabled.
package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/testseed"
)

// A Choice is one scheduling decision: a class index, an action of
// that class, and the index of the successor state to take (for
// nondeterministic transitions).
type Choice struct {
	Class  int
	Action ioa.Action
	Pick   int
}

// A Policy selects the next step of a run. It receives the automaton,
// the current state, and the indices of classes with enabled actions
// (never empty), and returns a choice. Policies must only choose
// enabled actions of the given classes.
type Policy interface {
	Choose(a ioa.Automaton, s ioa.State, enabledClasses []int) Choice
}

// Run executes up to maxSteps steps of a closed system (a system with
// no input actions left, or whose inputs are simply never delivered)
// under the given policy, starting from the automaton's first start
// state. It stops early when no locally-controlled action is enabled
// (the run is then a finite fair execution) or when stop returns true.
// A nil stop never stops early.
func Run(a ioa.Automaton, p Policy, maxSteps int, stop func(*ioa.Execution) bool) (*ioa.Execution, error) {
	return RunObs(a, p, maxSteps, stop, nil)
}

// RunObs is Run with observability: when o is non-nil, the run is
// traced as a span, and the Sim metric set records step counts, the
// per-step scheduling-pressure distribution (how many classes were
// enabled), and per-fairness-class fire counters — the empirical view
// of partition fairness (§2.1): under a fair policy every class's
// counter grows, while a starved class's counter stalls. A nil o makes
// RunObs identical to Run.
func RunObs(a ioa.Automaton, p Policy, maxSteps int, stop func(*ioa.Execution) bool, o *obs.Obs) (*ioa.Execution, error) {
	starts := a.Start()
	if len(starts) == 0 {
		return nil, fmt.Errorf("sim: automaton %s has no start states", a.Name())
	}
	var parts []ioa.Class
	if o != nil {
		o.Sim.Runs.Add(1)
		parts = a.Parts()
		defer o.Tracer.Span(0, "sim", "run "+a.Name())()
	}
	x := ioa.NewExecution(a, starts[0])
	for step := 0; step < maxSteps; step++ {
		if stop != nil && stop(x) {
			return x, nil
		}
		classes := ioa.EnabledClasses(a, x.Last())
		if len(classes) == 0 {
			return x, nil
		}
		c := p.Choose(a, x.Last(), classes)
		if err := x.Extend(c.Action, c.Pick); err != nil {
			return nil, fmt.Errorf("sim: policy chose disabled action: %w", err)
		}
		if o != nil {
			o.Sim.Steps.Add(1)
			o.Sim.EnabledClasses.Observe(int64(len(classes)))
			if c.Class >= 0 && c.Class < len(parts) {
				o.Sim.ClassFire(parts[c.Class].Name)
			}
		}
	}
	return x, nil
}

// RoundRobin is a fair policy: it cycles through the classes of
// part(A), giving each enabled class a turn, and within a class picks
// the least-recently-fired enabled action. Runs produced under
// RoundRobin satisfy the fair-window discipline (ioa.CheckFairWindow)
// with a window bounded by the number of classes.
//
// Note the within-class rule is stronger than the model requires:
// weak fairness is per class, so a policy free to pick ANY enabled
// action of the scheduled class can starve a fellow class member
// forever while the execution remains fair (that is precisely why E₁
// of the paper is a strict subset of Fair(A₁); see the spec package
// tests). Least-recently-fired realizes the per-action liveness the
// leads-to conditions ask for whenever an action is enabled infinitely
// often.
type RoundRobin struct {
	next      int
	turn      int
	lastFired map[ioa.Action]int
}

var _ Policy = (*RoundRobin)(nil)

// Choose implements Policy.
func (r *RoundRobin) Choose(a ioa.Automaton, s ioa.State, enabledClasses []int) Choice {
	if r.lastFired == nil {
		r.lastFired = make(map[ioa.Action]int)
	}
	nClasses := len(a.Parts())
	r.turn++
	for k := 0; k < nClasses; k++ {
		ci := (r.next + k) % nClasses
		for _, e := range enabledClasses {
			if e != ci {
				continue
			}
			r.next = (ci + 1) % nClasses
			acts := ioa.EnabledIn(a, s, a.Parts()[ci])
			chosen := acts[0]
			for _, act := range acts[1:] {
				if r.lastFired[act] < r.lastFired[chosen] {
					chosen = act
				}
			}
			r.lastFired[chosen] = r.turn
			return Choice{Class: ci, Action: chosen, Pick: r.turn}
		}
	}
	// Unreachable: enabledClasses is non-empty.
	ci := enabledClasses[0]
	acts := ioa.EnabledIn(a, s, a.Parts()[ci])
	return Choice{Class: ci, Action: acts[0]}
}

// Random is a seeded random policy. It is fair with probability 1 on
// finite-state systems but makes no hard fairness guarantee on bounded
// runs; use RoundRobin when fairness must be certain.
type Random struct {
	rng *rand.Rand
}

var _ Policy = (*Random)(nil)

// NewRandom builds a random policy from a seed, deriving its generator
// through testseed.Source (the sanctioned gateway — the nondet
// analyzer forbids constructing generators directly in this package).
func NewRandom(seed int64) *Random {
	return &Random{rng: testseed.Source(seed)}
}

// Choose implements Policy.
func (r *Random) Choose(a ioa.Automaton, s ioa.State, enabledClasses []int) Choice {
	ci := enabledClasses[r.rng.Intn(len(enabledClasses))]
	acts := ioa.EnabledIn(a, s, a.Parts()[ci])
	return Choice{Class: ci, Action: acts[r.rng.Intn(len(acts))], Pick: r.rng.Int()}
}

// Starve is an adversarial policy that never schedules the classes
// matching the given predicate while any other class is enabled. It is
// deliberately unfair — used in tests to show which guarantees are
// lost without fairness (§2.2).
type Starve struct {
	// Victim reports whether a class (by name) is starved.
	Victim func(string) bool
	// Fallback chooses among the remaining classes.
	Fallback Policy
}

var _ Policy = (*Starve)(nil)

// Choose implements Policy.
func (p *Starve) Choose(a ioa.Automaton, s ioa.State, enabledClasses []int) Choice {
	var allowed []int
	for _, ci := range enabledClasses {
		if !p.Victim(a.Parts()[ci].Name) {
			allowed = append(allowed, ci)
		}
	}
	if len(allowed) == 0 {
		allowed = enabledClasses
	}
	return p.Fallback.Choose(a, s, allowed)
}
