package proof

import (
	"context"
	"fmt"

	"repro/internal/explore"
	"repro/internal/ioa"
)

// referenceVerify is VerifyOpts as it stood before the kernel (PR 17),
// kept verbatim — minus the obs writes — as the differential oracle of
// this package, the way explore.ReferenceReach is the engine's: two
// reaches, a key set, every action of acts(A), Next, Map recomputed per
// successor, string compares. Its error, under the same Options, is the
// one the kernel must return byte for byte.
func referenceVerify(h *PossMapping, opts explore.Options) error {
	if !h.A.Sig().External().Equal(h.B.Sig().External()) {
		return fmt.Errorf("%w: external signatures differ:\n  A: %v\n  B: %v",
			ErrNotPossibilities, h.A.Sig().External(), h.B.Sig().External())
	}
	reachB, err := explore.New(opts).Reach(context.Background(), h.B)
	if err != nil {
		return err
	}
	bReach := make(map[string]struct{}, len(reachB))
	for _, s := range reachB {
		bReach[s.Key()] = struct{}{}
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
	reachA, err := explore.New(opts).Reach(context.Background(), h.A)
	if err != nil {
		return err
	}
	bActs := h.B.Sig().Acts()
	actsA := h.A.Sig().Acts().Sorted()
	for _, a := range reachA {
		for _, act := range actsA {
			for _, aNext := range ioa.Successors(h.A, a, act) {
				nextPoss := h.Map(aNext)
				for _, b := range h.Map(a) {
					if _, reachable := bReach[b.Key()]; !reachable {
						continue // condition applies to reachable possibilities only
					}
					if !bActs.Has(act) {
						if !containsKey(nextPoss, b.Key()) {
							return fmt.Errorf("%w: step (%q, %s, %q) of %s: possibility %q not preserved (action outside acts(%s))",
								ErrNotPossibilities, a.Key(), act, aNext.Key(), h.A.Name(), b.Key(), h.B.Name())
						}
						continue
					}
					ok := false
					for _, bNext := range ioa.Successors(h.B, b, act) {
						if containsKey(nextPoss, bNext.Key()) {
							ok = true
							break
						}
					}
					if !ok {
						return fmt.Errorf("%w: step (%q, %s, %q) of %s: no matching step of %s from possibility %q",
							ErrNotPossibilities, a.Key(), act, aNext.Key(), h.A.Name(), h.B.Name(), b.Key())
					}
				}
			}
		}
	}
	return nil
}
