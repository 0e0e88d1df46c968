// Package induct certifies safety properties by one-step induction
// instead of reachability. Where explore builds the reachable graph
// and checks the invariant on every vertex, induct never explores:
// it checks that every start state satisfies the candidate invariant
// (base case) and that every state of a candidate domain satisfying
// the invariant steps only to states satisfying it (inductive step).
// By the standard induction on execution length this certifies the
// invariant over all reachable states — at domain sizes far beyond
// what a reachability frontier could hold, because the domain is
// streamed (internal/domain) and successors are borrowed from one
// ioa.Walk and pushed through the encoder with no frontier, no dedup
// table, and no trace crumbs: resident memory is O(1) in the domain
// size.
//
// The price of induction is strengthening: a true invariant need not
// be inductive. A failed inductive step yields a
// counterexample-to-induction (CTI) — a one-step execution from a
// domain state satisfying the invariant to a state violating a named
// conjunct. The CTI's start is typically unreachable, which is
// exactly the information a proof author needs: the invariant must be
// conjoined with a lemma excluding that state. Strengthen automates
// one round-trip of this loop over a lemma library (the conjunct
// lattice of internal/lattice), TLAPS-style: Inv == TypeOK ∧ I1 ∧ ….
//
// Soundness requires the domain to be adequate: it must contain every
// start state and be closed under transitions from invariant states.
// When the domain implements Contains (domain.Container), both
// obligations are discharged mechanically — starts are checked for
// membership and every successor is checked before the step is
// credited (a violation is an "escape" CTI). Otherwise the
// certificate records AdequacyChecked=false and adequacy remains a
// side condition on the caller (e.g. a domain.Reachable envelope,
// closed by construction).
package induct

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"repro/internal/domain"
	"repro/internal/ioa"
	"repro/internal/lattice"
	"repro/internal/obs"
)

// Options configures a certification run.
type Options struct {
	// Obs receives metrics (nil disables observation).
	Obs *obs.Obs
}

// CTI kinds.
const (
	// KindBase marks a start state violating a conjunct (or outside
	// the domain).
	KindBase = "base"
	// KindStep marks a failed inductive step: From satisfies the
	// whole candidate invariant, From --Act--> To, and To violates
	// Conjunct.
	KindStep = "step"
	// KindEscape marks a domain-adequacy failure: an invariant state
	// steps outside the domain, so induction over the domain proves
	// nothing about the successor.
	KindEscape = "escape"
)

// A CTI is a counterexample to induction: the minimal evidence that
// the candidate invariant is not inductive over the domain. Engine
// enumeration is deterministic (domains stream in a fixed order,
// actions are probed sorted, successors visited in Next order), so
// the reported CTI is the first in enumeration order — minimization
// by construction, and stable across runs.
type CTI struct {
	// Kind is KindBase, KindStep, or KindEscape.
	Kind string
	// From is the pre-state: a start state (base) or a domain state
	// satisfying the candidate invariant (step, escape).
	From ioa.State
	// Act and To are the violating step (step and escape kinds only).
	Act ioa.Action
	To  ioa.State
	// Conjunct names the violated conjunct (base and step kinds).
	Conjunct string
	// Trace is the replayable witness: a one-step execution fragment
	// From --Act--> To (zero-step for base/escape kinds). Its start
	// is in general unreachable — reduce.ReplayTrace validates the
	// steps, not reachability.
	Trace *ioa.Execution
}

// String renders the CTI for diagnostics.
func (c *CTI) String() string {
	switch c.Kind {
	case KindStep:
		return fmt.Sprintf("CTI(step): %s --%s--> %s violates %s",
			c.From.Key(), c.Act, c.To.Key(), c.Conjunct)
	case KindEscape:
		return fmt.Sprintf("CTI(escape): %s --%s--> %s leaves the domain",
			c.From.Key(), c.Act, c.To.Key())
	default:
		return fmt.Sprintf("CTI(base): start %s violates %s", c.From.Key(), c.Conjunct)
	}
}

// An Obligation is the per-conjunct proof-obligation account: how
// many (candidate state, step, conjunct) checks the conjunct
// discharged during the inductive step.
type Obligation struct {
	Conjunct   string `json:"conjunct"`
	Discharged int64  `json:"discharged"`
}

// A Certificate records the outcome and cost of a certification run.
type Certificate struct {
	// Automaton, Domain, Invariant identify the run.
	Automaton string
	Domain    string
	Invariant string
	// Inductive reports the verdict: base case and inductive step
	// both hold over the domain.
	Inductive bool
	// AdequacyChecked reports whether domain adequacy (starts inside,
	// successors inside) was discharged mechanically. False when the
	// domain has no Contains; adequacy is then a caller-side proof
	// obligation and Inductive certifies relative to it.
	AdequacyChecked bool
	// BaseStates counts start states checked; DomainStates the
	// domain states enumerated; Candidates those satisfying the
	// candidate invariant (whose steps carry obligations);
	// Transitions the successor states pushed; SelfLoops the
	// successors equal to their pre-state (discharged by identity).
	BaseStates   int64
	DomainStates int64
	Candidates   int64
	Transitions  int64
	SelfLoops    int64
	// Obligations is the per-conjunct account, in conjunction order.
	Obligations []Obligation
	// CTI is the first counterexample to induction, nil when
	// Inductive.
	CTI *CTI
}

// String renders a one-line verdict.
func (c Certificate) String() string {
	verdict := "NOT INDUCTIVE"
	if c.Inductive {
		verdict = "INDUCTIVE"
		if !c.AdequacyChecked {
			verdict += " (adequacy unchecked)"
		}
	}
	s := fmt.Sprintf("%s over %s [%s]: %s — %d domain states, %d candidates, %d transitions",
		c.Invariant, c.Domain, c.Automaton, verdict,
		c.DomainStates, c.Candidates, c.Transitions)
	if c.CTI != nil {
		s += "; " + c.CTI.String()
	}
	return s
}

// errStop aborts a domain walk once a CTI is found.
var errStop = errors.New("induct: stop")

// checker is the per-run state of the inductive-step walk.
type checker struct {
	a        ioa.Automaton
	inv      *lattice.Conjunction
	lemmas   []lattice.Lemma      // inv.Lemmas(), copied once per run
	contains func(ioa.State) bool // nil when the domain has no Contains

	step    *ioa.Walk               // sorted: fixes the CTI order
	from    ioa.State               // the candidate being stepped
	yield   func(to ioa.State) bool // push, bound once
	fromEnc []byte                  // pre-state encoding, reused per state
	toEnc   []byte                  // successor encoding, reused per push

	discharged []int64 // per-conjunct obligation counts
	cert       *Certificate
	cti        *CTI

	o     *obs.Obs // progress sink; nil keeps the walk emission-free
	total int64    // domain.Size when known, else 0
}

// inductProgressStride is how many domain states separate progress
// snapshots in the streaming walk. A pruned walk advances the count
// by whole subtrees, so a snapshot is due whenever a multiple of the
// stride has been crossed, not when one is hit.
const inductProgressStride = 65536

// emitProgress publishes one streaming-walk snapshot. Only called
// with c.o non-nil.
func (c *checker) emitProgress(done bool) {
	c.o.EmitProgress(obs.Progress{
		Phase:  "induct",
		States: c.cert.DomainStates,
		Total:  c.total,
		Done:   done,
	})
}

// Check certifies inv over dom by one-step induction. The returned
// error reports only infrastructure failures (context cancellation,
// domain enumeration errors); a failed induction is a nil error with
// Certificate.CTI set. The walk is O(1) resident in the domain size:
// no frontier, no dedup table — each candidate state is visited,
// stepped, and dropped.
func Check(ctx context.Context, a ioa.Automaton, dom domain.Domain, inv *lattice.Conjunction, opts Options) (Certificate, error) {
	var m *obs.InductMetrics
	if opts.Obs != nil {
		m = opts.Obs.Induct
	}
	if m != nil {
		m.Runs.Add(1)
	}
	cert := Certificate{
		Automaton: a.Name(),
		Domain:    dom.Name(),
		Invariant: inv.String(),
	}
	c := &checker{
		a:          a,
		inv:        inv,
		lemmas:     inv.Lemmas(),
		step:       ioa.NewWalk(a, true),
		discharged: make([]int64, inv.Len()),
		cert:       &cert,
		o:          opts.Obs,
	}
	c.yield = c.push
	if t := domain.Size(dom); t > 0 {
		c.total = t
	}
	if cn, ok := dom.(domain.Container); ok {
		c.contains = cn.Contains
		cert.AdequacyChecked = true
	}

	// Base case: every start state is in the domain and satisfies
	// every conjunct.
	for _, s := range a.Start() {
		if err := ctx.Err(); err != nil {
			return cert, err
		}
		cert.BaseStates++
		if c.contains != nil && !c.contains(s) {
			c.cti = &CTI{Kind: KindBase, From: s, Conjunct: "(domain)",
				Trace: ioa.NewExecution(a, s)}
			break
		}
		if l, bad := inv.FirstViolated(s); bad {
			c.cti = &CTI{Kind: KindBase, From: s, Conjunct: l.Name,
				Trace: ioa.NewExecution(a, s)}
			break
		}
	}

	// Inductive step: stream the domain; every state satisfying inv
	// must step only to states satisfying inv (and staying inside).
	if c.cti == nil {
		err := c.walk(ctx, dom)
		if err != nil && !errors.Is(err, errStop) {
			return cert, err
		}
	}
	if c.o != nil {
		c.emitProgress(true)
	}

	cert.Obligations = make([]Obligation, inv.Len())
	for i, l := range c.lemmas {
		cert.Obligations[i] = Obligation{Conjunct: l.Name, Discharged: c.discharged[i]}
		m.Obligations(l.Name, c.discharged[i])
	}
	cert.CTI = c.cti
	cert.Inductive = c.cti == nil
	if m != nil {
		m.Domain.Set(cert.DomainStates)
		m.Candidates.Set(cert.Candidates)
		m.Transitions.Set(cert.Transitions)
		if cert.CTI != nil {
			m.CTIs.Add(1)
		}
	}
	return cert, nil
}

// walk streams the domain through visitState. Lemmas that declare
// their reads become filters of the domain's pruned walk when it has
// one: subtrees a declared conjunct rejects are never built, and
// their sizes reach DomainStates through the enumeration index. The
// survivors still face the whole conjunction in visitState, so the
// candidates, their order and hence the CTI are those of the plain
// walk.
func (c *checker) walk(ctx context.Context, dom domain.Domain) error {
	var filters []domain.Filter
	for _, l := range c.lemmas {
		if l.Reads != nil {
			filters = append(filters, domain.Filter{Name: l.Name, Reads: l.Reads, Pred: l.Pred})
		}
	}
	p, ok := dom.(domain.Pruner)
	if !ok || len(filters) == 0 {
		return dom.Visit(ctx, func(s ioa.State) error {
			return c.visitState(s, c.cert.DomainStates)
		})
	}
	if err := p.VisitWhere(ctx, filters, c.visitState); err != nil {
		return err
	}
	c.cert.DomainStates = c.total // the states past the last survivor
	return nil
}

// visitState runs the inductive step for the domain state with the
// given enumeration index.
func (c *checker) visitState(s ioa.State, index int64) error {
	before := c.cert.DomainStates
	c.cert.DomainStates = index + 1
	if c.o != nil && before/inductProgressStride != c.cert.DomainStates/inductProgressStride {
		c.emitProgress(false)
	}
	if !c.inv.Holds(s) {
		return nil // not a candidate: vacuous obligation
	}
	c.cert.Candidates++
	c.fromEnc = ioa.AppendState(c.fromEnc[:0], s)
	c.from = s
	if !c.step.Visit(s, c.yield) {
		return errStop
	}
	return nil
}

// push checks one successor of c.from, borrowed from the walk; false
// stops the enumeration (CTI found).
func (c *checker) push(to ioa.State) bool {
	c.cert.Transitions++
	c.toEnc = ioa.AppendState(c.toEnc[:0], to)
	if bytes.Equal(c.toEnc, c.fromEnc) {
		// Self-loop: the successor is the candidate itself, which
		// satisfies inv by the candidate test. Credit every conjunct
		// without re-evaluating.
		c.cert.SelfLoops++
		for i := range c.discharged {
			c.discharged[i]++
		}
		return true
	}
	for i, l := range c.lemmas {
		if !l.Pred(to) {
			return c.fail(&CTI{Kind: KindStep, Conjunct: l.Name}, to)
		}
		c.discharged[i]++
	}
	if c.contains != nil && !c.contains(to) {
		return c.fail(&CTI{Kind: KindEscape}, to)
	}
	return true
}

// fail records cti as the step from c.from by c.step.Act to to, kept
// past the walk, and stops the enumeration.
func (c *checker) fail(cti *CTI, to ioa.State) bool {
	cti.From, cti.Act, cti.To = c.from, c.step.Act, ioa.Keep(to)
	cti.Trace = ioa.NewExecution(c.a, cti.From)
	cti.Trace.Append(cti.Act, cti.To)
	c.cti = cti
	return false
}
