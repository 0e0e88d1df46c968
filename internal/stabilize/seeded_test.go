package stabilize

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/explore"
	"repro/internal/ioa"
)

// TestSeededStepsBorrowed: seeded overrides Start and nothing else, so
// a sorted walk through it steps the composition in the walk's scratch
// exactly as over the bare composition, and allocates no more. A
// wrapper that stepped on the heap would pay a tuple and a part vector
// per successor.
func TestSeededStepsBorrowed(t *testing.T) {
	ioa.SetScratchPoison(false) // a poisoned scratch abandons its memory on every Reset
	defer ioa.SetScratchPoison(true)
	comps := make([]ioa.Automaton, 3)
	for i := range comps {
		name := fmt.Sprint("c", i)
		d := ioa.NewDef(name)
		d.Start(ioa.KeyState("0"))
		d.Internal(ioa.Act("tick", name), name,
			func(ioa.State) bool { return true },
			func(s ioa.State) ioa.State { return ioa.KeyState(fmt.Sprint((s.Key()[0] - '0' + 1) % 3)) })
		comps[i] = d.MustBuild()
	}
	c := ioa.MustCompose("ticks", comps...)
	states, err := explore.New(explore.Options{}).Reach(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(a ioa.Automaton) (allocs float64, successors int) {
		walk := ioa.NewWalk(a)
		var enc []byte
		encode := func(nxt ioa.State) bool {
			enc = ioa.AppendState(enc[:0], nxt)
			return true
		}
		run := func() {
			for _, s := range states {
				walk.Visit(s, encode)
			}
		}
		run() // warm the memo, the scratch chunks and the buffers
		for _, s := range states {
			walk.Visit(s, func(ioa.State) bool { successors++; return true })
		}
		return testing.AllocsPerRun(5, run), successors
	}
	bare, n := sweep(c)
	wrapped, m := sweep(&seeded{Numbered: c, starts: states})
	if n != 3*len(states) || m != n {
		t.Fatalf("%d states: %d successors bare, %d through seeded, want %d each", len(states), n, m, 3*len(states))
	}
	if wrapped > bare {
		t.Errorf("a sorted sweep of %d successors allocates %.0f objects through seeded, %.0f over the bare composition", n, wrapped, bare)
	}
}
