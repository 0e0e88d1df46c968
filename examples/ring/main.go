// Ring example: a second protocol verified against the same
// specification. A LeLann-style token-ring arbiter (internal/ring) is
// shown to satisfy the A₁/E₁ specification of §3.1 via a direct
// possibilities mapping — the same machinery that carries the paper's
// three-level Schönhage proof — and then raced against Schönhage's
// arbiter under the b-bounded timing discipline of §3.4.
package main

import (
	"fmt"
	"log"

	"repro/internal/arbiter/spec"
	"repro/internal/arbiter/users"
	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/ring"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)

	const n = 6
	us := spec.DefaultUsers(n)
	sys, err := ring.New(us)
	if err != nil {
		log.Fatal(err)
	}
	a1 := spec.New(us)

	fmt.Printf("token ring with %d processes; verifying the possibilities mapping to A₁…\n", n)
	h := sys.H(a1)
	if err := h.VerifyOpts(explore.Options{Limit: 1 << 21}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("ring ≤ A₁ certified over the full reachable state space ✓")

	// Run it.
	closed, err := ioa.Compose("closed", append([]ioa.Automaton{sys.Arbiter}, users.Automata(users.HeavyLoad(us))...)...)
	if err != nil {
		log.Fatal(err)
	}
	grants := make(map[string]int)
	x, err := sim.Run(closed, &sim.RoundRobin{}, 600, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, act := range x.Acts {
		if act.Base() == "grant" {
			grants[act.Params()[0]]++
		}
	}
	fmt.Printf("fair heavy-load run, %d steps; grants per user: %v\n\n", x.Len(), grants)

	// Response-time comparison under the §3.4 timing discipline.
	fmt.Println("max response time (units of b), token ring vs Schönhage:")
	fmt.Printf("%4s | %12s | %12s\n", "n", "ring L/H", "Schönhage L/H")
	for _, size := range []int{4, 8, 16, 32} {
		rl, err := bench.RunRing(size, bench.Light, 1, 3, 1)
		if err != nil {
			log.Fatal(err)
		}
		rh, err := bench.RunRing(size, bench.Heavy, 1, 6*size, 1)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := graph.BinaryTree(size)
		if err != nil {
			log.Fatal(err)
		}
		uid := tr.NodesOf(graph.User)[0]
		sl, err := bench.Run(bench.Config{
			Tree: tr, Holder: bench.FarthestHolderFrom(tr, uid),
			Load: bench.Light, B: 1, Grants: 3, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		sh, err := bench.Run(bench.Config{
			Tree: tr, Holder: tr.NodesOf(graph.Arbiter)[0],
			Load: bench.Heavy, B: 1, Grants: 6 * size, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4d | %5.0f /%5.0f | %5.0f /%5.0f\n",
			size, rl.Stats.Max, rh.Stats.Max, sl.Stats.Max, sh.Stats.Max)
	}
	fmt.Println("\nthe ring pays Θ(n) even under light load; Schönhage rides the tree: Θ(log n)")
}
