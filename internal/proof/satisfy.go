package proof

import (
	"fmt"

	"repro/internal/explore"
	"repro/internal/ioa"
)

// Satisfaction (§2.3): object O satisfies object P if they have the
// same external action signature and fbeh(O) ⊆ fbeh(P). Behavior
// inclusion is undecidable in general; FairSatisfiesViaMappingOpts
// checks the sufficient condition of Lemma 30 over (bounded) reachable
// state sets.

// FairSatisfiesViaMappingOpts checks the hypothesis of Lemma 30 for the
// possibilities mapping h, which then implies fbeh(A) ⊆ fbeh(B):
//
//   - part(B) is contained in part(A) (every class of B is a subset of
//     a class of A), and
//   - for all reachable states a of A and classes C ⊇ D with
//     C ∈ part(A), D ∈ part(B): if an action of D is enabled from a
//     reachable possibility of a, then an action of D is enabled from
//     a and no action of C − D is enabled from a.
//
// The check explores at most Options.Limit states of each automaton:
// B's through the explore engine's sequential kernel, and A's in one
// sequential walk, beside the checks at two or more
// workers, whose admitted states are checked in discovery order on the
// calling goroutine (kernel.go), so the first failure reported is the
// first in discovery order at any worker count.
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
	var inReach []ioa.State // the possibilities of a inside Reach(B)
	return h.newWalk(nil, func(a ioa.State, poss []ioa.State) error {
		inReach = inReach[:0]
		for _, s := range poss {
			if b.find(s) != unreachable {
				inReach = append(inReach, s)
			}
		}
		enabledA := ioa.NewSet(h.A.Enabled(a)...)
		for j, d := range partsB {
			c := partsA[containing[j]]
			// Is an action of D enabled from a reachable possibility?
			dEnabledAtPoss := false
			for _, s := range inReach {
				for _, act := range h.B.Enabled(s) {
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
		return nil
	}).run(opts)
}
