// Arbiter example: the full three-level Schönhage arbiter of Chapter 3
// on the Figure 3.2 graph. The fully-detailed distributed protocol
// (per-process automata + message system) is composed with three users
// and driven fairly; along the way the run is checked for mutual
// exclusion and no-lockout — through the h₂ and h₁ abstraction maps,
// at all three levels at once.
package main

import (
	"fmt"
	"log"

	"repro/internal/arbiter/dist"
	"repro/internal/arbiter/graphlevel"
	"repro/internal/arbiter/mapping"
	"repro/internal/arbiter/users"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)

	tr, err := graph.Figure32()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("the Figure 3.2 graph:\n", tr)

	// Level 3: the distributed implementation, a1 initially holding,
	// wired to the levels above it: its arbiter renamed to speak A1
	// names at the user ports, and the h₂ and h₁ abstraction maps.
	sys, err := dist.New(tr, 0)
	if err != nil {
		log.Fatal(err)
	}
	c, err := mapping.NewChain(sys)
	if err != nil {
		log.Fatal(err)
	}

	// Close the system with three users that request forever.
	names := []string{"u1", "u2", "u3"}
	comps := append([]ioa.Automaton{c.Arb}, users.Automata(users.HeavyLoad(names))...)
	closed, err := ioa.Compose("arbiter", comps...)
	if err != nil {
		log.Fatal(err)
	}

	// The abstraction chain, used live during the run.
	h2 := c.H2Map

	grants := make(map[string]int)
	violations := 0
	x, err := sim.Run(closed, &sim.RoundRobin{}, 600, func(x *ioa.Execution) bool {
		if x.Len() == 0 {
			return false
		}
		// Map the current level-3 state up to level 2 and check the
		// safety invariants there.
		s3 := x.Last().(*ioa.TupleState).At(0)
		s2, err := h2.Apply(s3)
		if err != nil {
			log.Fatalf("h2: %v", err)
		}
		if !graphlevel.SingleRoot(s2) || !graphlevel.MutualExclusion(s2) {
			violations++
		}
		act := x.Acts[len(x.Acts)-1]
		if act.Base() == "grant" && len(act.Params()) == 1 {
			u := act.Params()[0]
			grants[u]++
			// Level 1 view via h1.
			s1 := mapping.MapH1(c.Aug, s2)
			fmt.Printf("step %3d  grant(%s)   level-1 state: %s\n", x.Len(), u, s1.Key())
		}
		return false
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nran %d fair steps; grants: %v\n", x.Len(), grants)
	if violations > 0 {
		log.Fatalf("safety violations: %d", violations)
	}
	fmt.Println("mutual exclusion held at every step (checked at level 2 via h₂)")
	for _, u := range names {
		if grants[u] == 0 {
			log.Fatalf("no-lockout failed: %s never granted", u)
		}
	}
	fmt.Println("no lockout: every user was served")
}
