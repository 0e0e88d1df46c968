// Refinement example: the hierarchical correctness proof of Chapter 3,
// animated. A fair execution of the distributed arbiter A₃ is lifted
// through the possibilities mappings h₂ and h₁ (Lemma 28), producing
// corresponding executions of A₂ and A₁ whose schedules are exactly
// the projections the paper's Lemma 29 promises — and both mappings
// are first verified mechanically over the entire reachable state
// space (Lemmas 39 and 46).
package main

import (
	"fmt"
	"log"

	"repro/internal/arbiter/dist"
	"repro/internal/arbiter/mapping"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/proof"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)

	tr, err := graph.Figure32()
	if err != nil {
		log.Fatal(err)
	}
	sys, err := dist.New(tr, 0)
	if err != nil {
		log.Fatal(err)
	}
	c, err := mapping.NewChain(sys)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("verifying h₂ : A₃′ → A₂ over all reachable states (Lemma 46)…")
	if err := c.H2.VerifyOpts(explore.Options{Limit: 1 << 20}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verifying h₁ : A₂′ → A₁ over all reachable states (Lemma 39)…")
	if err := c.H1.VerifyOpts(explore.Options{Limit: 1 << 20}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("both possibilities mappings verified ✓")

	// Drive a fair execution of A₃ (closed with users) and lift it.
	var userAutos []ioa.Automaton
	for _, u := range []string{"u1", "u2", "u3"} {
		d := ioa.NewDef("U_" + u)
		d.Start(ioa.KeyState("idle"))
		d.Output(ioa.Act("request", u), u,
			func(s ioa.State) bool { return s.Key() == "idle" },
			func(ioa.State) ioa.State { return ioa.KeyState("waiting") })
		d.Input(ioa.Act("grant", u), func(s ioa.State) ioa.State {
			if s.Key() == "waiting" {
				return ioa.KeyState("holding")
			}
			return s
		})
		d.Output(ioa.Act("return", u), u,
			func(s ioa.State) bool { return s.Key() == "holding" },
			func(ioa.State) ioa.State { return ioa.KeyState("idle") })
		userAutos = append(userAutos, d.MustBuild())
	}
	closed, err := ioa.Compose("closed", append([]ioa.Automaton{c.Arb}, userAutos...)...)
	if err != nil {
		log.Fatal(err)
	}
	x, err := sim.Run(closed, &sim.RoundRobin{}, 120, nil)
	if err != nil {
		log.Fatal(err)
	}
	l, err := c.Lift(x)
	if err != nil {
		log.Fatal(err)
	}
	x3, x2, x1 := l.X3, l.X2, l.X1
	if err := proof.CheckCorrespondence(x3, x2, c.A2); err != nil {
		log.Fatal(err)
	}
	if err := proof.CheckCorrespondence(l.X2r, x1, c.A1); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nA₃ execution: %3d steps   behavior: %s\n",
		x3.Len(), short(ioa.TraceString(x3.Behavior())))
	fmt.Printf("A₂ execution: %3d steps (corresponding under h₂, Lemma 28/29 ✓)\n", x2.Len())
	fmt.Printf("A₁ execution: %3d steps (corresponding under h₁)\n", x1.Len())
	fmt.Printf("A₁ behavior:  %s\n", short(ioa.TraceString(x1.Behavior())))
	fmt.Println("\nevery step of the detailed protocol simulates the specification:")
	fmt.Println("E₃* solves E₁ (Theorem 49)")
}

func short(s string) string {
	if len(s) > 120 {
		return s[:120] + "…"
	}
	return s
}
