package explore

// BenchmarkObsOverhead measures the cost of the observability layer on
// the exploration hot path. The "off" case runs the
// instrumented engine with a nil *obs.Obs — the production default —
// and is the number that must stay within 2% of the
// pre-instrumentation throughput (E17 in EXPERIMENTS.md records the
// comparison against the unmodified engine measured at the same
// commit). The "on" case runs with metrics and tracing enabled, which
// is allowed to cost more; its price is also recorded in E17 and
// BENCH_obs.json.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/ioa"
	"repro/internal/obs"
)

// modCounters builds a closed composition of k independent counter
// automata, each cycling mod m under its own fairness class: m^k
// reachable states, every action always enabled — a dense synthetic
// workload for the exploration engine with no arbiter-specific logic.
func modCounters(k, m int) ioa.Automaton {
	comps := make([]ioa.Automaton, k)
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("ctr%d", i)
		d := ioa.NewDef(name)
		d.Start(ioa.KeyState("0"))
		next := make(map[string]ioa.State, m)
		for v := 0; v < m; v++ {
			next[fmt.Sprint(v)] = ioa.KeyState(fmt.Sprint((v + 1) % m))
		}
		d.Internal(ioa.Act("tick", name), name,
			func(ioa.State) bool { return true },
			func(s ioa.State) ioa.State { return next[s.Key()] })
		comps[i] = d.MustBuild()
	}
	return ioa.MustCompose("mod-counters", comps...)
}

func benchReach(b *testing.B, opts Options, instrument bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		a := modCounters(5, 8) // 32768 states, rebuilt so memo caches start cold
		if instrument {
			ioa.SetObsDeep(a, opts.Obs)
		}
		states, err := New(opts).Reach(context.Background(), a)
		if err != nil {
			b.Fatal(err)
		}
		if len(states) != 32768 {
			b.Fatalf("reached %d states, want 32768", len(states))
		}
		b.SetBytes(0)
		b.ReportMetric(float64(len(states)*b.N)/b.Elapsed().Seconds(), "states/s")
	}
}

func BenchmarkObsOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		benchReach(b, Options{}, false)
	})
	b.Run("on", func(b *testing.B) {
		o := obs.New(nil)
		benchReach(b, Options{Obs: o}, true)
	})
}
