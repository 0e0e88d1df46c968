// Fairness example: Figures 2.2 and 2.3 of the paper, demonstrated
// executably.
//
// Figure 2.2 — the partition of locally-controlled actions carries
// real information: the all-α execution of the composition is fair
// with the per-component partition ({β},{γ}) but unfair if β and γ are
// merged into one class.
//
// Figure 2.3 — fair equivalence and unfair equivalence are
// incomparable: A and B have identical behaviors but differ fairly
// (α^ω is a fair behavior of A only); C and D agree fairly but differ
// unfairly (α^ω is an unfair behavior of C only).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/explore"
	"repro/internal/figures"
	"repro/internal/ioa"
)

func main() {
	log.SetFlags(0)
	figure22()
	figure23()
}

func figure22() {
	fmt.Println("=== Figure 2.2: the partition matters ===")
	split := figures.Fig22()
	merged := figures.Fig22Merged()

	driveAlpha := func(a ioa.Automaton, k int) *ioa.Execution {
		x := ioa.NewExecution(a, a.Start()[0])
		for i := 0; i < k; i++ {
			if err := x.Extend(figures.Alpha, 0); err != nil {
				log.Fatal(err)
			}
		}
		return x
	}
	x := driveAlpha(split, 16)
	if err := ioa.CheckFairWindow(x, 2); err != nil {
		log.Fatalf("split: %v", err)
	}
	fmt.Println("α^16 with partition {β},{γ}: FAIR (each component's class")
	fmt.Println("  is disabled at every other state — both get their chance)")

	y := driveAlpha(merged, 16)
	err := ioa.CheckFairWindow(y, 2)
	if err == nil {
		log.Fatal("merged partition should make the run unfair")
	}
	fmt.Printf("α^16 with merged class {β,γ}: UNFAIR (%v)\n\n", err)
}

func figure23() {
	fmt.Println("=== Figure 2.3: fair vs unfair equivalence ===")
	ctx := context.Background()
	eng := explore.New(explore.Options{Limit: 100})
	a, b := figures.Fig23A(), figures.Fig23B()
	same, _, err := eng.SameBehaviors(ctx, a, b, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("A, B unfairly equivalent (behaviors to depth 5): %t\n", same)

	alphaOnly := func(act ioa.Action) bool { return act == figures.Alpha }
	la, err := eng.FindLasso(ctx, a, alphaOnly, true)
	if err != nil {
		log.Fatal(err)
	}
	lb, err := eng.FindLasso(ctx, b, alphaOnly, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("α^ω fair for A: %t   fair for B: %t  → fairly INEQUIVALENT\n",
		la != nil, lb != nil)

	c, d := figures.Fig23C(), figures.Fig23D(6)
	anyAct := func(ioa.Action) bool { return true }
	lc, err := eng.FindLasso(ctx, c, anyAct, true)
	if err != nil {
		log.Fatal(err)
	}
	ld, err := eng.FindLasso(ctx, d, anyAct, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nC fair lasso: stem %q, cycle %s\n",
		ioa.TraceString(lc.Stem.Schedule()), ioa.TraceString(lc.Cycle))
	fmt.Printf("D fair lasso: stem %q, cycle %s\n",
		ioa.TraceString(ld.Stem.Schedule()), ioa.TraceString(ld.Cycle))
	fmt.Println("both fair behaviors have the shape α^k β α^ω → fairly equivalent")

	lcu, err := eng.FindLasso(ctx, c, alphaOnly, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("α^ω unfair behavior of C: %t (α-cycle at the start state)\n", lcu != nil)
	mD, err := eng.Behaviors(ctx, d, 8)
	if err != nil {
		log.Fatal(err)
	}
	alphas := make([]ioa.Action, 7)
	for i := range alphas {
		alphas[i] = figures.Alpha
	}
	fmt.Printf("α^7 a behavior of D(6): %t  → unfairly INEQUIVALENT\n", mD.Has(alphas))
}
