package ioa

import (
	"fmt"
)

// Fairness (§2.2). A fair execution gives every class of part(A) a
// chance to take a step infinitely often:
//
//  1. if the execution is finite, no action of any class is enabled
//     from its final state;
//  2. if infinite, for each class C either actions of C appear
//     infinitely often, or states from which no action of C is enabled
//     appear infinitely often.
//
// This file checks finite executions: condition 1 exactly
// (IsFairFinite), and a window discipline standing in for condition 2
// on scheduler output (CheckFairWindow). Condition 2 itself is decided
// on the reachable graph, by ltl's fair-cycle search.

// IsFairFinite reports whether the finite execution x is fair: no
// locally-controlled action is enabled from its final state (§2.2.1,
// condition 1).
func IsFairFinite(x *Execution) bool {
	return len(x.Auto.Enabled(x.Last())) == 0
}

// CheckFairWindow verifies a weak-fairness discipline on a long finite
// execution: within every window of `window` consecutive steps, every
// class either performs an action or is disabled at some state in the
// window. This is the finite approximation of §2.2.1 condition 2 used
// to validate scheduler output. It returns an error naming the first
// violating class and position.
func CheckFairWindow(x *Execution, window int) error {
	if window <= 0 {
		return fmt.Errorf("ioa: non-positive fairness window %d", window)
	}
	parts := x.Auto.Parts()
	// lastOK[ci] = last index i (state position) at which class ci was
	// either disabled or performed an action at step i.
	lastOK := make([]int, len(parts))
	for i := 0; i < x.Len(); i++ {
		for ci, c := range parts {
			acted := c.Actions.Has(x.Acts[i])
			disabled := !ClassEnabled(x.Auto, x.States[i+1], c)
			if acted || disabled {
				lastOK[ci] = i + 1
				continue
			}
			if i+1-lastOK[ci] > window {
				return fmt.Errorf("ioa: class %q continuously enabled without acting for >%d steps (at step %d)",
					c.Name, window, i+1)
			}
		}
	}
	return nil
}

// Lemma18Extend extends a finite execution to a fair execution by
// cycling over the classes of part(A), performing an enabled action of
// the current class when one exists (the construction in the proof of
// Lemma 18). It stops when no locally-controlled action is enabled
// (the extension is then provably fair) or after maxSteps extra steps.
// It returns whether the resulting execution is (finite-)fair.
func Lemma18Extend(x *Execution, maxSteps int) bool {
	parts := x.Auto.Parts()
	if len(parts) == 0 {
		return true
	}
	ci := 0
	for steps := 0; steps < maxSteps; steps++ {
		enabled := x.Auto.Enabled(x.Last())
		if len(enabled) == 0 {
			return true
		}
		// Try classes starting from ci; fall back to any enabled action.
		var chosen Action
		found := false
		for k := 0; k < len(parts) && !found; k++ {
			c := parts[(ci+k)%len(parts)]
			for _, a := range enabled {
				if c.Actions.Has(a) {
					chosen, found = a, true
					break
				}
			}
		}
		ci = (ci + 1) % len(parts)
		if !found {
			chosen = enabled[0]
		}
		if err := x.Extend(chosen, steps); err != nil {
			return false
		}
	}
	return IsFairFinite(x)
}
