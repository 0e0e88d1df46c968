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
// sequential walk beside the checks, whose admitted states are checked
// in discovery order on the calling goroutine (kernel.go), so the first
// failure reported is the first in discovery order.
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

	// Resolve the classes to action numbers once: classB files each of
	// B's numbers under its class of B (-1: an input), inD marks each
	// class's actions among A's numbers, and classA files each of A's
	// numbers under its class of A, so C − D is classA = containing[j]
	// and not inD[j].
	numA, numB := ioa.Number(h.A), ioa.Number(h.B)
	classA := classOf(numA.Actions(), partsA)
	classB := classOf(numB.Actions(), partsB)
	inD := make([][]bool, len(partsB))
	for j, d := range partsB {
		inD[j] = make([]bool, len(numA.Actions()))
		for i, act := range numA.Actions() {
			inD[j][i] = d.Actions.Has(act)
		}
	}

	b, err := reachIndexed(opts, h.B)
	if err != nil {
		return err
	}
	var enA, enB []int32
	atPoss := make([]bool, len(partsB)) // D enabled at a reachable possibility
	return h.newWalk(nil, func(a ioa.State, poss []ioa.State) error {
		clear(atPoss)
		for _, s := range poss {
			if b.find(s) == unreachable {
				continue
			}
			enB = numB.AppendEnabled(enB[:0], s)
			for _, e := range enB {
				if j := classB[e]; j >= 0 {
					atPoss[j] = true
				}
			}
		}
		enA = numA.AppendEnabled(enA[:0], a)
		for j, d := range partsB {
			if !atPoss[j] {
				continue
			}
			atA, cd := false, int32(-1) // cd: the least action of C − D enabled
			for _, e := range enA {
				switch {
				case inD[j][e]:
					atA = true
				case classA[e] == containing[j] && (cd < 0 || e < cd):
					cd = e
				}
			}
			if !atA {
				return fmt.Errorf("proof: Lemma 30 hypothesis fails at state %q: class %q enabled at a possibility but not at the state",
					a.Key(), d.Name)
			}
			if cd >= 0 {
				return fmt.Errorf("proof: Lemma 30 hypothesis fails at state %q: action %q of C−D enabled",
					a.Key(), numA.Actions()[cd])
			}
		}
		return nil
	}).run(opts)
}

// classOf files each action of acts under the index of its class in
// parts, -1 for an action in none (an input).
func classOf(acts []ioa.Action, parts []ioa.Class) []int {
	class := make([]int, len(acts))
	for i, act := range acts {
		class[i] = -1
		for j, c := range parts {
			if c.Actions.Has(act) {
				class[i] = j
				break
			}
		}
	}
	return class
}
