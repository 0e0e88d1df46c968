// Package invpurepos hands impure predicates to every anchor the
// invpure analyzer tracks: state mutation through a pointer-asserted
// alias, a write to a captured counter, wall-clock and global-random
// reads, and map-iteration order escaping into the returned verdict.
package invpurepos

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/lattice"
	"repro/internal/stabilize"
)

type box struct {
	n int
	m map[string]int
}

func (b *box) Key() string { return "box" }

var evals int

func lemmas() []lattice.Lemma {
	mutating := lattice.L("mutating", func(s ioa.State) bool {
		pb := s.(*box)
		pb.n = 1 // want "mutates its state argument"
		return true
	})
	counting := lattice.Lemma{Name: "counting", Pred: func(s ioa.State) bool {
		evals++ // want "writes captured variable"
		return s.Key() != ""
	}}
	clocked := lattice.L("clocked", func(s ioa.State) bool {
		return time.Now().Unix() > 0 // want "reads the wall clock"
	})
	flaky := lattice.L("flaky", flip)
	ordered := lattice.L("ordered", func(s ioa.State) bool {
		for k := range s.(*box).m {
			return k != "" // want "map iteration order flows into the predicate's return value"
		}
		return true
	})
	return []lattice.Lemma{mutating, counting, clocked, flaky, ordered}
}

// flip is a named predicate resolved through the declaration index.
func flip(s ioa.State) bool {
	return rand.Intn(2) == 0 // want "a random predicate certifies nothing"
}

func certify() error {
	_, err := stabilize.Certify(context.Background(), nil, func(s ioa.State) bool {
		b := s.(*box)
		delete(b.m, "seen") // want "mutates its state argument"
		return true
	}, nil, explore.Options{})
	return err
}
