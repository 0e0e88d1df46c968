package proof

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/explore"
	"repro/internal/ioa"
)

// A PossMapping is a possibilities mapping from automaton A to
// automaton B (§2.3.1): h maps each state of A to a set of states of
// B ("possibilities") such that
//
//  1. every start state of A has a start state of B among its
//     possibilities, and
//  2. for every reachable state a of A, step (a, π, a′) of A, and
//     reachable possibility b ∈ h(a):
//     (a) if π ∈ acts(B), some step (b, π, b′) of B has b′ ∈ h(a′);
//     (b) if π ∉ acts(B), then b ∈ h(a′).
//
// A and B must have the same external action signature.
type PossMapping struct {
	// A is the concrete (lower-level) automaton.
	A ioa.Automaton
	// B is the abstract (higher-level) automaton.
	B ioa.Automaton
	// Map returns h(a), the possibilities for a state of A. For the
	// common case of a functional mapping, return a singleton. The
	// checks of this package call Map once per start state and once per
	// reachable state of A — before checking any condition on them, so
	// also on states past the first failure — and never from two
	// goroutines at once, whatever Options.Workers says: Map may memoise
	// without locking.
	Map func(ioa.State) []ioa.State
}

// ErrNotPossibilities is returned when mechanical verification finds a
// counterexample to the possibilities-mapping conditions.
var ErrNotPossibilities = errors.New("proof: not a possibilities mapping")

// Verify mechanically checks the possibilities-mapping conditions over
// the reachable states of A (exploring at most limit states of each
// automaton). For finite-state A and B this is a complete check; for
// larger systems it is a bounded certification.
func (h *PossMapping) Verify(limit int) error {
	return h.VerifyOpts(explore.Options{Limit: limit})
}

// VerifyOpts is Verify with explicit exploration options. The two
// reachability passes run through the explore engine, Map is tabulated
// once over the result, and condition 2 is then checked by
// Options.Workers goroutines over that table (kernel.go). The error is
// the same at every worker count: the first failure in the order of
// Reach(A), then sorted action, then Next order, then Map order. An
// Options.Canon is refused, as by every *Opts check here (refuseCanon).
func (h *PossMapping) VerifyOpts(opts explore.Options) error {
	if err := refuseCanon(opts); err != nil {
		return err
	}
	if o := opts.Obs; o != nil {
		defer o.Tracer.Span(0, "proof", "verify "+h.A.Name()+" -> "+h.B.Name())()
	}
	if !h.A.Sig().External().Equal(h.B.Sig().External()) {
		return fmt.Errorf("%w: external signatures differ:\n  A: %v\n  B: %v",
			ErrNotPossibilities, h.A.Sig().External(), h.B.Sig().External())
	}
	reachB, err := reachIndexed(opts, h.B)
	if err != nil {
		return err
	}

	// Condition 1.
	for _, a0 := range h.A.Start() {
		ok := false
		for _, b := range h.Map(a0) {
			for _, b0 := range h.B.Start() {
				if b.Key() == b0.Key() {
					ok = true
					break
				}
			}
		}
		if !ok {
			return fmt.Errorf("%w: start state %q of %s has no start-state possibility in %s",
				ErrNotPossibilities, a0.Key(), h.A.Name(), h.B.Name())
		}
	}

	// Condition 2, over reachable states of A.
	m, err := h.image(opts, reachB)
	if err != nil {
		return err
	}
	return h.condition2(opts, m)
}

func containsKey(states []ioa.State, key string) bool {
	for _, s := range states {
		if s.Key() == key {
			return true
		}
	}
	return false
}

// Correspond constructs an execution y of B corresponding to the
// execution x of A under h (Lemma 28): sched(x)|B = sched(y) and each
// prefix of y finitely corresponds to the matching prefix of x. It
// returns an error if the mapping conditions fail along x (which
// Verify would also catch).
func (h *PossMapping) Correspond(x *ioa.Execution) (*ioa.Execution, error) {
	bActs := h.B.Sig().Acts()
	// Choose a start possibility for x's first state.
	var cur ioa.State
	for _, b := range h.Map(x.First()) {
		for _, b0 := range h.B.Start() {
			if b.Key() == b0.Key() {
				cur = b
				break
			}
		}
		if cur != nil {
			break
		}
	}
	if cur == nil {
		return nil, fmt.Errorf("%w: no start possibility for %q", ErrNotPossibilities, x.First().Key())
	}
	y := ioa.NewExecution(h.B, cur)
	for i, act := range x.Acts {
		aNext := x.States[i+1]
		nextPoss := h.Map(aNext)
		if !bActs.Has(act) {
			if !containsKey(nextPoss, cur.Key()) {
				return nil, fmt.Errorf("%w: possibility %q lost at step %d (%s)",
					ErrNotPossibilities, cur.Key(), i, act)
			}
			continue
		}
		var chosen ioa.State
		for _, bNext := range ioa.Successors(h.B, cur, act) {
			if containsKey(nextPoss, bNext.Key()) {
				chosen = bNext
				break
			}
		}
		if chosen == nil {
			return nil, fmt.Errorf("%w: no matching %s-step of %s from %q at step %d",
				ErrNotPossibilities, act, h.B.Name(), cur.Key(), i)
		}
		y.Append(act, chosen)
		cur = chosen
	}
	return y, nil
}

// CheckCorrespondence validates Lemma 29 on a concrete pair: the
// schedule of y equals sched(x)|acts(B).
func CheckCorrespondence(x, y *ioa.Execution, b ioa.Automaton) error {
	want := b.Sig().Acts().Project(x.Acts)
	got := y.Schedule()
	if ioa.TraceString(want) != ioa.TraceString(got) {
		return fmt.Errorf("proof: correspondence violated:\n  sched(x)|B = %s\n  sched(y)   = %s",
			ioa.TraceString(want), ioa.TraceString(got))
	}
	return nil
}

// TransferDown instantiates Lemma 32(2): if x satisfies S ↝ T and
// S ⊇ h⁻¹(U), T ⊆ V, then the corresponding y satisfies U ↝ V. It
// verifies the two set conditions on the reachable states of A (up to
// limit) and returns the transferred condition for use on B.
//
// The caller provides U over states of B and V over actions; the
// returned checkable fact is that (U ↝ V) holds on any execution of B
// corresponding to an execution of A satisfying (S ↝ T).
func (h *PossMapping) TransferDown(limit int, s func(ioa.State) bool, t func(ioa.Action) bool,
	u func(ioa.State) bool, v func(ioa.Action) bool) error {
	return h.TransferDownOpts(explore.Options{Limit: limit}, s, t, u, v)
}

// TransferDownOpts is TransferDown with explicit exploration options
// (see VerifyOpts).
func (h *PossMapping) TransferDownOpts(opts explore.Options, s func(ioa.State) bool, t func(ioa.Action) bool,
	u func(ioa.State) bool, v func(ioa.Action) bool) error {
	if err := refuseCanon(opts); err != nil {
		return err
	}
	// S ⊇ h⁻¹(U): every reachable a with some possibility in U must be in S.
	if _, err := h.mapAll(opts, func(a ioa.State, poss []ioa.State) error {
		if slices.ContainsFunc(poss, u) && !s(a) {
			return fmt.Errorf("proof: S ⊉ h⁻¹(U): state %q has a possibility in U but is not in S", a.Key())
		}
		return nil
	}); err != nil {
		return err
	}
	// T ⊆ V over the actions of A shared with B.
	for act := range h.A.Sig().Acts().Intersect(h.B.Sig().Acts()) {
		if t(act) && !v(act) {
			return fmt.Errorf("proof: T ⊄ V: action %q in T but not V", act)
		}
	}
	return nil
}
