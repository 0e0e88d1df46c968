// Package stabilize certifies self-stabilization properties of I/O
// automata: closure (the legitimate-state set L is invariant under
// every step) and convergence (from every state of an enumerable
// corruption envelope, every fair execution reaches L, with a measured
// worst-case round bound k when one exists).
//
// The paper's hierarchy (§3) proves the arbiter correct from its
// designated initial states; this package asks the complementary
// robustness question — what happens when a fault throws the system
// into an arbitrary corrupt state? Following the certified
// self-stabilization framework of Altisen, Corbineau & Devismes, both
// halves are mechanical checks over a finite transition graph:
//
//   - The corruption envelope (an Envelope — an explicit state list,
//     or the reachable states of a fault-wrapped automaton projected
//     back into the certified automaton's state space) is closed
//     under steps by the explore engine, giving dense state IDs in
//     the interned store.
//
//   - Closure scans every legitimate state's outgoing edges: an edge
//     leaving L is a closure break, witnessed by its step.
//
//   - Convergence computes a per-state rounds-to-legitimacy table in
//     one pass over the strongly connected components of the
//     non-legitimate region: r(s) = 0 for s ∈ L, otherwise 1 + max
//     over successors — the demonic bound over every scheduling
//     choice. A cycle or deadlock inside the non-legitimate region
//     makes those states divergent. With no divergence, convergence
//     is bounded and k = max r over the envelope. With divergence, a
//     deadlock outside L refutes convergence outright (a finite fair
//     execution ends outside L); otherwise ltl.FindCycle decides
//     whether a component of the divergent region carries a
//     fair-sustainable cycle (§2.2.1 condition 2) — one found refutes
//     convergence under fair scheduling, none certifies fair
//     convergence without a uniform bound (a demon can postpone
//     recovery arbitrarily, but no fair execution avoids L forever).
//
// Determinism: the closure is explored in the engine's canonical
// order, the graph probes actions sorted, and every scan walks nodes
// in dense-ID order, so certificates — including which witness is
// reported — are bit-identical across runs at a fixed worker count.
package stabilize

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/domain"
	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/ltl"
	"repro/internal/obs"
	"repro/internal/store"
)

// Options parameterizes certification.
type Options struct {
	// Workers is the explore engine's worker count (0 = GOMAXPROCS,
	// 1 = sequential).
	Workers int
	// Limit bounds the envelope closure (0 = explore.DefaultLimit).
	// Hitting the limit is an error: a certificate over a truncated
	// closure certifies nothing.
	Limit int
	// Obs, when non-nil, publishes stabilize.* metrics: run counts,
	// envelope/closure gauges, the measured k, and the
	// rounds-to-legitimacy histogram.
	Obs *obs.Obs
	// Canon, when non-nil, certifies over the symmetry quotient: the
	// envelope, its closure, and the transition graph all dedup
	// canonically, so EnvelopeStates/States count orbits. Requires the
	// symmetry to be an automorphism and legit to be orbit-invariant;
	// then the demonic rounds table over representatives equals the
	// concrete one (an automorphism maps worst-case schedules to
	// worst-case schedules), so K and Rounds are unchanged — the
	// reduce package's property test pins this on Dijkstra's ring.
	Canon store.Canonicalizer
}

// exploreOptions converts to the engine options the certifier runs on.
func (o Options) exploreOptions() explore.Options {
	return explore.Options{Workers: o.Workers, Limit: o.Limit, Obs: o.Obs, Canon: o.Canon}
}

// engine builds the explore engine the options describe.
func (o Options) engine() *explore.Engine {
	return explore.New(o.exploreOptions())
}

// A Step is one transition witness.
type Step struct {
	From ioa.State
	Act  ioa.Action
	To   ioa.State
}

// String renders the step.
func (s *Step) String() string {
	return fmt.Sprintf("%s --%s--> %s", s.From.Key(), s.Act, s.To.Key())
}

// A Divergence witnesses a convergence failure.
type Divergence struct {
	// Kind is "deadlock" (a non-legitimate state with no outgoing
	// steps ends a finite fair execution outside L) or "cycle" (a
	// fair-sustainable cycle avoids L forever).
	Kind string
	// State is the divergent state the witness reaches: the deadlock
	// state, or the cycle's anchor.
	State ioa.State
	// Cycle and CycleStates describe the fair cycle (Kind "cycle"):
	// the actions around it and the states visited, first and last
	// both State.
	Cycle       []ioa.Action
	CycleStates []ioa.State
	// Witness is a minimal execution from an envelope state to State.
	Witness *ioa.Execution
}

// A Certificate records the verdicts of one certification run.
type Certificate struct {
	// Automaton and Envelope name what was certified.
	Automaton string
	Envelope  string
	// EnvelopeStates counts distinct corrupt start states.
	EnvelopeStates int
	// States is the size of the envelope's closure under steps — the
	// graph both checks ran over.
	States int
	// LegitStates counts legitimate states inside the closure.
	LegitStates int

	// Closed reports that no step leaves L within the closure; a
	// break is witnessed by ClosureBreak. (Closure is certified over
	// the explored graph: legitimate states outside the envelope's
	// closure are not examined, so envelopes meant to certify L
	// itself must cover it — the full-corruption envelope does.)
	Closed       bool
	ClosureBreak *Step

	// Converges reports that every fair execution from every envelope
	// state reaches L. Bounded additionally reports a uniform step
	// bound: K is the measured worst case over envelope states and
	// MeanRounds the envelope average. When Converges && !Bounded,
	// recovery is fair-only: K = -1 and a scheduling demon can defer
	// L arbitrarily long. When !Converges, Divergence holds the
	// witness.
	Converges  bool
	Bounded    bool
	K          int
	MeanRounds float64
	// Rounds is the per-state rounds-to-legitimacy table, indexed by
	// dense state ID in closure order; -1 marks divergent states.
	Rounds []int

	Divergence *Divergence
}

// Stabilizing reports the combined verdict.
func (c *Certificate) Stabilizing() bool { return c.Closed && c.Converges }

// String renders a human-readable certificate summary.
func (c *Certificate) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stabilize: %s under envelope %q\n", c.Automaton, c.Envelope)
	fmt.Fprintf(&b, "  envelope %d state(s) -> closure %d state(s), %d legitimate\n",
		c.EnvelopeStates, c.States, c.LegitStates)
	if c.Closed {
		b.WriteString("  closure:     OK — L is invariant under all steps\n")
	} else {
		fmt.Fprintf(&b, "  closure:     BROKEN — step %s leaves L\n", c.ClosureBreak)
	}
	switch {
	case c.Converges && c.Bounded:
		fmt.Fprintf(&b, "  convergence: OK — every execution reaches L within k=%d round(s) (envelope mean %.2f)\n",
			c.K, c.MeanRounds)
	case c.Converges:
		b.WriteString("  convergence: OK under fairness — every fair execution reaches L; no uniform bound\n")
	case c.Divergence != nil && c.Divergence.Kind == "deadlock":
		fmt.Fprintf(&b, "  convergence: FAILED — deadlock outside L at %s\n", c.Divergence.State.Key())
	case c.Divergence != nil:
		fmt.Fprintf(&b, "  convergence: FAILED — fair cycle outside L: %s\n", ioa.TraceString(c.Divergence.Cycle))
	default:
		b.WriteString("  convergence: FAILED\n")
	}
	if c.Stabilizing() {
		b.WriteString("  verdict:     SELF-STABILIZING")
	} else {
		b.WriteString("  verdict:     NOT self-stabilizing")
	}
	return b.String()
}

// seeded overrides an automaton's start states with the corruption
// envelope, so the explore engine's reachability sweep computes the
// envelope's closure under steps. Everything else, Next with its
// scratch included, is the embedded automaton's.
type seeded struct {
	ioa.Automaton
	starts []ioa.State
}

// Start implements ioa.Automaton.
func (s *seeded) Start() []ioa.State { return s.starts }

// Certify checks closure and convergence of a with respect to the
// legitimate-state predicate legit, from the corruption envelope env.
func Certify(ctx context.Context, a ioa.Automaton, legit func(ioa.State) bool, env Envelope, opts Options) (*Certificate, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if legit == nil {
		return nil, fmt.Errorf("stabilize: nil legitimacy predicate")
	}
	if env == nil {
		return nil, fmt.Errorf("stabilize: nil envelope")
	}
	envStates, err := domain.Collect(ctx, env)
	if err != nil {
		return nil, err
	}
	if len(envStates) == 0 {
		return nil, fmt.Errorf("stabilize: envelope %q is empty", env.Name())
	}
	distinct := store.New(store.Options{Canon: opts.Canon})
	nEnv := 0
	for _, s := range envStates {
		if _, fresh := distinct.Intern(s); fresh {
			nEnv++
		}
	}
	if err := distinct.Err(); err != nil {
		return nil, fmt.Errorf("stabilize: envelope %q: %w", env.Name(), err)
	}

	// Close the envelope under steps. The first nEnv states of the
	// result are exactly the distinct envelope states: both engines
	// emit depth 0 (the start states) before any successor.
	w := &seeded{Automaton: a, starts: envStates}
	eng := opts.engine()
	states, err := eng.Reach(ctx, w)
	if err != nil {
		return nil, fmt.Errorf("stabilize: closing envelope %q: %w", env.Name(), err)
	}
	g, err := ltl.BuildGraphCanon(ctx, w, states, nil, opts.Canon)
	if err != nil {
		return nil, err
	}
	// The closure Reach above emits "explore" progress through the
	// engine; mark the certifier's own phase transitions so a ledger
	// shows closure → rounds-analysis → verdict.
	if o := opts.Obs; o != nil {
		o.EmitProgress(obs.Progress{Phase: "stabilize", States: int64(len(states)), Frontier: int64(nEnv)})
	}

	cert := &Certificate{
		Automaton:      a.Name(),
		Envelope:       env.Name(),
		EnvelopeStates: nEnv,
		States:         len(states),
	}
	legitAt := make([]bool, len(states))
	for i, s := range states {
		if legit(s) {
			legitAt[i] = true
			cert.LegitStates++
		}
	}

	// Closure: no edge may leave L. First break in (node, edge) order
	// wins, deterministically.
	cert.Closed = true
closure:
	for i := range states {
		if !legitAt[i] {
			continue
		}
		for _, e := range g.Adj[i] {
			if !legitAt[e.To] {
				cert.Closed = false
				cert.ClosureBreak = &Step{From: states[i], Act: e.Act, To: states[e.To]}
				break closure
			}
		}
	}

	divergent := cert.roundsTable(g, legitAt)

	if !divergent {
		cert.Converges, cert.Bounded = true, true
		sum := 0
		for i := 0; i < nEnv; i++ {
			if r := cert.Rounds[i]; r > cert.K {
				cert.K = r
			} else if r < 0 {
				return nil, fmt.Errorf("stabilize: internal error: envelope state %d unsettled", i)
			}
			sum += cert.Rounds[i]
		}
		cert.MeanRounds = float64(sum) / float64(nEnv)
	} else {
		cert.K = -1
		if err := cert.refuteOrCertifyFair(ctx, eng, w, g, legitAt); err != nil {
			return nil, err
		}
	}

	if o := opts.Obs; o != nil {
		o.Stabilize.Runs.Add(1)
		o.Stabilize.States.Set(int64(cert.States))
		o.Stabilize.Envelope.Set(int64(cert.EnvelopeStates))
		o.Stabilize.K.Set(int64(cert.K))
		for i := 0; i < nEnv; i++ {
			if r := cert.Rounds[i]; r >= 0 {
				o.Stabilize.Rounds.Observe(int64(r))
			}
		}
		o.EmitProgress(obs.Progress{Phase: "stabilize", States: int64(cert.States), Done: true})
	}
	return cert, nil
}

// roundsTable fills cert.Rounds with the demonic rounds-to-legitimacy
// bound per state — r(s) = 0 on L, else 1 + max over successors — in
// one pass over the strongly connected components of the
// non-legitimate region, successors first. A singleton whose
// successors are all settled gets 1 + max; every other state — in a
// nontrivial component, on a self-loop, deadlocked, or with a
// divergent successor — is divergent (-1). Returns whether any state
// diverged.
func (c *Certificate) roundsTable(g *ltl.StateGraph, legitAt []bool) bool {
	c.Rounds = make([]int, len(g.States))
	comps, _ := g.SCCs(func(i int) bool { return !legitAt[i] })
	diverged := false
	for _, comp := range comps {
		v, best := comp[0], -1
		for _, e := range g.Adj[v] {
			if len(comp) > 1 || e.To == v || c.Rounds[e.To] < 0 {
				best = -1 // nontrivial, self-loop, divergent successor
				break
			}
			best = max(best, c.Rounds[e.To]+1)
		}
		if best >= 0 { // no successors at all leaves best -1: a deadlock
			c.Rounds[v] = best
			continue
		}
		diverged = true
		for _, u := range comp {
			c.Rounds[u] = -1
		}
	}
	return diverged
}

// refuteOrCertifyFair settles convergence when the rounds table
// diverged: a deadlock outside L refutes it; otherwise a
// fair-sustainable cycle within the non-legitimate region refutes it;
// otherwise convergence holds under fairness, without a bound.
func (c *Certificate) refuteOrCertifyFair(ctx context.Context, eng *explore.Engine, w ioa.Automaton, g *ltl.StateGraph, legitAt []bool) error {
	for i := range g.States {
		if !legitAt[i] && len(g.Adj[i]) == 0 {
			wit, err := eng.Witness(ctx, w, g.States[i])
			if err != nil {
				return err
			}
			c.Divergence = &Divergence{Kind: "deadlock", State: g.States[i], Witness: wit}
			return nil
		}
	}
	outsideL := func(i int) bool { return !legitAt[i] }
	start, acts, nodes, err := g.FindCycle(ctx, w, ltl.CycleOptions{Fair: true, Within: outsideL})
	if err != nil {
		return err
	}
	if acts == nil {
		// Divergent states exist but no fair cycle sustains them:
		// every fair execution leaves the divergent region and,
		// rounds decreasing thereafter, reaches L.
		c.Converges = true
		return nil
	}
	wit, err := eng.Witness(ctx, w, g.States[start])
	if err != nil {
		return err
	}
	c.Divergence = &Divergence{
		Kind:        "cycle",
		State:       g.States[start],
		Cycle:       acts,
		CycleStates: g.PathStates(nodes),
		Witness:     wit,
	}
	return nil
}
