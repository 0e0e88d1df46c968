package proof

import (
	"context"
	"fmt"

	"repro/internal/explore"
	"repro/internal/ioa"
)

// Satisfaction (§2.3): object O satisfies object P if they have the
// same external action signature and fbeh(O) ⊆ fbeh(P). Behavior
// inclusion is undecidable in general; this package offers two sound
// mechanical instruments:
//
//   - UnfairSatisfiesBounded: exact behavior-set inclusion up to a
//     bounded execution depth (complete for that bound);
//   - FairSatisfiesViaMapping: the sufficient condition of Lemma 30,
//     checked over (bounded) reachable state sets.

// UnfairSatisfiesBounded reports whether every external behavior of a
// with at most depth steps is an external behavior of b with at most
// depth steps, returning a counterexample trace otherwise.
func UnfairSatisfiesBounded(a, b ioa.Automaton, depth int) (bool, []ioa.Action, error) {
	if !a.Sig().External().Equal(b.Sig().External()) {
		return false, nil, fmt.Errorf("proof: external signatures differ")
	}
	ma, err := explore.New(explore.Options{Workers: 1}).Behaviors(context.Background(), a, depth)
	if err != nil {
		return false, nil, err
	}
	mb, err := explore.New(explore.Options{Workers: 1}).Behaviors(context.Background(), b, depth)
	if err != nil {
		return false, nil, err
	}
	for _, tr := range ma.Traces() {
		if !mb.Has(tr) {
			return false, tr, nil
		}
	}
	return true, nil, nil
}

// FairSatisfiesViaMapping checks the hypothesis of Lemma 30 for the
// possibilities mapping h, which then implies fbeh(A) ⊆ fbeh(B):
//
//   - part(B) is contained in part(A) (every class of B is a subset of
//     a class of A), and
//   - for all reachable states a of A and classes C ⊇ D with
//     C ∈ part(A), D ∈ part(B): if an action of D is enabled from a
//     reachable possibility of a, then an action of D is enabled from
//     a and no action of C − D is enabled from a.
//
// The check explores at most limit states of each automaton.
func FairSatisfiesViaMapping(h *PossMapping, limit int) error {
	return FairSatisfiesViaMappingOpts(h, explore.Options{Limit: limit})
}

// FairSatisfiesViaMappingOpts is FairSatisfiesViaMapping with explicit
// exploration options: both reachability passes run through
// the explore engine, so a Workers setting parallelizes them.
func FairSatisfiesViaMappingOpts(h *PossMapping, opts explore.Options) error {
	if err := refuseCanon(opts); err != nil {
		return err
	}
	partsA, partsB := h.A.Parts(), h.B.Parts()
	// Partition containment: map each class of B to its containing
	// class of A.
	containing := make([]int, len(partsB))
	for j, d := range partsB {
		containing[j] = -1
		for i, c := range partsA {
			contains := true
			for act := range d.Actions {
				if !c.Actions.Has(act) {
					contains = false
					break
				}
			}
			if contains {
				containing[j] = i
				break
			}
		}
		if containing[j] < 0 {
			return fmt.Errorf("proof: Lemma 30 hypothesis fails: class %q of %s not contained in any class of %s",
				d.Name, h.B.Name(), h.A.Name())
		}
	}

	b, err := reachIndexed(opts, h.B)
	if err != nil {
		return err
	}
	m, err := h.image(opts, b)
	if err != nil {
		return err
	}
	for i, a := range m.reachA {
		enabledA := ioa.NewSet(h.A.Enabled(a)...)
		for j, d := range partsB {
			c := partsA[containing[j]]
			// Is an action of D enabled from a reachable possibility?
			dEnabledAtPoss := false
			for _, p := range m.row(i) {
				if p == unreachable {
					continue
				}
				for _, act := range h.B.Enabled(b.states[p]) {
					if d.Actions.Has(act) {
						dEnabledAtPoss = true
						break
					}
				}
				if dEnabledAtPoss {
					break
				}
			}
			if !dEnabledAtPoss {
				continue
			}
			dEnabledAtA := false
			for act := range d.Actions {
				if enabledA.Has(act) {
					dEnabledAtA = true
					break
				}
			}
			if !dEnabledAtA {
				return fmt.Errorf("proof: Lemma 30 hypothesis fails at state %q: class %q enabled at a possibility but not at the state",
					a.Key(), d.Name)
			}
			for act := range c.Actions.Minus(d.Actions) {
				if enabledA.Has(act) {
					return fmt.Errorf("proof: Lemma 30 hypothesis fails at state %q: action %q of C−D enabled",
						a.Key(), act)
				}
			}
		}
	}
	return nil
}

// FairBehaviorsFinite computes the set of behaviors of finite fair
// executions of a with at most depth steps (executions ending in a
// state with no locally-controlled action enabled). Together with
// fair lassos (explore.FindLasso with fair=true) this characterizes
// the fair behavior of finite automata.
func FairBehaviorsFinite(a ioa.Automaton, depth int) (*ioa.SchedModule, error) {
	mod, err := explore.New(explore.Options{Workers: 1}).Execs(context.Background(), a, depth)
	if err != nil {
		return nil, err
	}
	ext := a.Sig().Ext()
	var traces [][]ioa.Action
	for _, x := range mod.Execs {
		if ioa.IsFairFinite(x) {
			traces = append(traces, ext.Project(x.Acts))
		}
	}
	return ioa.NewSchedModule(a.Sig().External(), traces)
}

// SatisfactionChain verifies transitivity-style satisfaction evidence:
// each adjacent pair (Oᵢ₊₁, Oᵢ) is certified by a possibilities
// mapping whose Lemma 30 hypothesis holds, yielding Lemma 26(1)'s
// conclusion that the last object satisfies the first. It returns the
// per-link verification errors, nil-free on success.
func SatisfactionChain(limit int, links ...*PossMapping) error {
	return SatisfactionChainOpts(explore.Options{Limit: limit}, links...)
}

// SatisfactionChainOpts is SatisfactionChain with explicit exploration
// options applied to every link's verification.
func SatisfactionChainOpts(opts explore.Options, links ...*PossMapping) error {
	for i, h := range links {
		if err := h.VerifyOpts(opts); err != nil {
			return fmt.Errorf("link %d (%s → %s): %w", i, h.A.Name(), h.B.Name(), err)
		}
	}
	return nil
}
