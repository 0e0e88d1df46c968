package repro

// Benchmark harness: one benchmark per table/figure/claim of the paper
// (see the per-experiment index in DESIGN.md). Each benchmark reports
// the measured quantity and the paper's bound as custom metrics, in
// units of the step bound b, so `go test -bench=. -benchmem` prints the
// same series §3.4 reports.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/arbiter/dist"
	"repro/internal/arbiter/mapping"
	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/figures"
	"repro/internal/graph"
	"repro/internal/ioa"
	"repro/internal/proof"
	"repro/internal/sim"
)

var benchSizes = []int{2, 4, 8, 16, 32, 64}

// BenchmarkTheorem50LightLoad regenerates the Theorem 50 series:
// light-load response time vs tree size, against the 2bd bound.
func BenchmarkTheorem50LightLoad(b *testing.B) {
	for _, kind := range []struct {
		name  string
		build func(int) (*graph.Tree, error)
	}{
		{name: "binary", build: graph.BinaryTree},
		{name: "line", build: func(n int) (*graph.Tree, error) { return graph.Line(n) }},
	} {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("%s/n=%d", kind.name, n), func(b *testing.B) {
				tr, err := kind.build(n)
				if err != nil {
					b.Fatal(err)
				}
				uid := tr.NodesOf(graph.User)[0]
				cfg := bench.Config{
					Tree:   tr,
					Holder: bench.FarthestHolderFrom(tr, uid),
					Load:   bench.Light,
					B:      1,
					Grants: 3,
					Seed:   1,
				}
				var res *bench.Result
				for i := 0; i < b.N; i++ {
					res, err = bench.Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
				}
				bound := 2 * float64(tr.Diameter())
				if res.Stats.Max > bound {
					b.Fatalf("max response %.1f exceeds 2bd = %.1f", res.Stats.Max, bound)
				}
				b.ReportMetric(res.Stats.Max, "resp_b")
				b.ReportMetric(bound, "bound_b")
			})
		}
	}
}

// BenchmarkTheorem52HeavyLoad regenerates the Theorem 52 series:
// heavy-load worst response vs edge count, against the 3be−b bound.
func BenchmarkTheorem52HeavyLoad(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tr, err := graph.BinaryTree(n)
			if err != nil {
				b.Fatal(err)
			}
			cfg := bench.Config{
				Tree:   tr,
				Holder: tr.NodesOf(graph.Arbiter)[0],
				Load:   bench.Heavy,
				B:      1,
				Grants: 6 * n,
				Seed:   1,
			}
			var res *bench.Result
			for i := 0; i < b.N; i++ {
				res, err = bench.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			bound := 3*float64(tr.EdgeCount()) - 1
			if res.Stats.Max > bound {
				b.Fatalf("max response %.1f exceeds 3be−b = %.1f", res.Stats.Max, bound)
			}
			b.ReportMetric(res.Stats.Max, "resp_b")
			b.ReportMetric(bound, "bound_b")
			b.ReportMetric(float64(res.EdgeMsgs)/float64(res.Stats.Grants), "msgs/grant")
		})
	}
}

// BenchmarkCombinedMessages regenerates the §3.4 closing-remark
// ablation: the combined grant+request variant against its 2be bound,
// with the messages-per-grant metric exposing the 3:2 traffic ratio.
func BenchmarkCombinedMessages(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tr, err := graph.BinaryTree(n)
			if err != nil {
				b.Fatal(err)
			}
			cfg := bench.Config{
				Tree:    tr,
				Holder:  tr.NodesOf(graph.Arbiter)[0],
				Load:    bench.Heavy,
				B:       1,
				Grants:  6 * n,
				Combine: true,
				Seed:    1,
			}
			var res *bench.Result
			for i := 0; i < b.N; i++ {
				res, err = bench.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			bound := 2 * float64(tr.EdgeCount())
			if res.Stats.Max > bound {
				b.Fatalf("max response %.1f exceeds 2be = %.1f", res.Stats.Max, bound)
			}
			b.ReportMetric(res.Stats.Max, "resp_b")
			b.ReportMetric(bound, "bound_b")
			b.ReportMetric(float64(res.EdgeMsgs)/float64(res.Stats.Grants), "msgs/grant")
		})
	}
}

// BenchmarkBaselineComparison regenerates the §3.4 ¶1 comparison
// against the [LF81] arbiters, under both loads.
func BenchmarkBaselineComparison(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("roundrobin/light/n=%d", n), func(b *testing.B) {
			var st baseline.Stats
			var err error
			for i := 0; i < b.N; i++ {
				st, err = baseline.RoundRobin(n, 3, baseline.LightLoad(n, n-1))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(st.Max, "resp_b")
		})
		b.Run(fmt.Sprintf("roundrobin/heavy/n=%d", n), func(b *testing.B) {
			var st baseline.Stats
			var err error
			for i := 0; i < b.N; i++ {
				st, err = baseline.RoundRobin(n, 6*n, baseline.HeavyLoad(n))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(st.Max, "resp_b")
		})
		b.Run(fmt.Sprintf("tournament/light/n=%d", n), func(b *testing.B) {
			var st baseline.Stats
			var err error
			for i := 0; i < b.N; i++ {
				st, err = baseline.Tournament(n, 3, baseline.LightLoad(n, n-1))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(st.Max, "resp_b")
		})
		b.Run(fmt.Sprintf("tournament/heavy/n=%d", n), func(b *testing.B) {
			var st baseline.Stats
			var err error
			for i := 0; i < b.N; i++ {
				st, err = baseline.Tournament(n, 6*n, baseline.HeavyLoad(n))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(st.Max, "resp_b")
		})
	}
}

// BenchmarkFigure21Composition micro-benchmarks stepping the Figure
// 2.1 composition (the cost of synchronized composite steps).
func BenchmarkFigure21Composition(b *testing.B) {
	c := figures.Fig21()
	s := c.Start()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enabled := c.Enabled(s)
		next := ioa.Successors(c, s, enabled[0])
		s = next[0]
	}
}

// BenchmarkRefinementCheck times the mechanical verification of the
// full h₂ possibilities mapping over the reachable states of A₃
// (Theorem 49's key link) on the Figure 3.2 instance.
func BenchmarkRefinementCheck(b *testing.B) {
	tr, err := graph.Figure32()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := dist.New(tr, 0)
	if err != nil {
		b.Fatal(err)
	}
	c, err := mapping.NewChain(sys)
	if err != nil {
		b.Fatal(err)
	}
	h2 := c.H2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h2.VerifyOpts(explore.Options{Limit: 1 << 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReachabilityA3 times state-space exploration of the
// distributed arbiter (the substrate of every invariant check).
func BenchmarkReachabilityA3(b *testing.B) {
	tr, err := graph.Figure32()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := dist.New(tr, 0)
	if err != nil {
		b.Fatal(err)
	}
	var states []ioa.State
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		states, err = explore.New(explore.Options{Limit: 1 << 20}).Reach(context.Background(), sys.A3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(states)), "states")
}

// BenchmarkDecomposition times the Theorem 23 construction plus a
// bounded behavior-equality check (the §2.2.3 ablation: what the
// primitive-decomposition machinery costs).
func BenchmarkDecomposition(b *testing.B) {
	a := figures.Fig23C()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, composed, err := proof.Decompose(a, a.States())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := explore.New(explore.Options{}).Behaviors(context.Background(), composed, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistVsGraph is the cross-level experiment: heavy-load
// response measured on the fully-distributed A₃ against the A₂-over-𝒢
// bound 3b·e(𝒢)−b (relating complexity across abstraction levels —
// flagged as future work in the paper's Chapter 4).
func BenchmarkDistVsGraph(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tr, err := graph.BinaryTree(n)
			if err != nil {
				b.Fatal(err)
			}
			aug, err := graph.Augment(tr)
			if err != nil {
				b.Fatal(err)
			}
			holder := tr.NodesOf(graph.Arbiter)[0]
			var res *bench.Result
			for i := 0; i < b.N; i++ {
				res, err = bench.RunDist(tr, holder, bench.Heavy, 1, 5*n, 1)
				if err != nil {
					b.Fatal(err)
				}
			}
			bound := 3*float64(aug.EdgeCount()) - 1
			if res.Stats.Max > bound {
				b.Fatalf("A3 max %.1f exceeds 3b·e(𝒢)−b = %.1f", res.Stats.Max, bound)
			}
			b.ReportMetric(res.Stats.Max, "resp_b")
			b.ReportMetric(bound, "bound_b")
		})
	}
}

// BenchmarkFairSimulation times the fair round-robin simulation of the
// closed three-level arbiter at level 3 (Figure 3.2 instance), the
// workhorse of the liveness tests.
func BenchmarkFairSimulation(b *testing.B) {
	tr, err := graph.Figure32()
	if err != nil {
		b.Fatal(err)
	}
	sys, err := dist.New(tr, 0)
	if err != nil {
		b.Fatal(err)
	}
	users := make([]ioa.Automaton, 0, 3)
	for _, u := range tr.NodesOf(graph.User) {
		users = append(users, benchUser(tr.Node(u).Name, tr.Node(tr.UserAttachment(u)).Name))
	}
	closed, err := ioa.Compose("closed3", append([]ioa.Automaton{sys.A3}, users...)...)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(closed, &sim.RoundRobin{}, 500, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchUser is a minimal always-requesting level-3 user.
func benchUser(user, arb string) *ioa.Prog {
	d := ioa.NewDef("U_" + user)
	d.Start(ioa.KeyState("idle"))
	d.Output(dist.ReceiveRequest(user, arb), user,
		func(s ioa.State) bool { return s.Key() == "idle" },
		func(ioa.State) ioa.State { return ioa.KeyState("waiting") })
	d.Input(dist.SendGrant(arb, user), func(s ioa.State) ioa.State {
		if s.Key() == "waiting" {
			return ioa.KeyState("holding")
		}
		return s
	})
	d.Output(dist.ReceiveGrant(user, arb), user,
		func(s ioa.State) bool { return s.Key() == "holding" },
		func(ioa.State) ioa.State { return ioa.KeyState("idle") })
	return d.MustBuild()
}
