package store_test

// Micro-benchmarks for the store hot paths: writer-side interning and
// frozen-phase probe lookups. Run in CI at -benchtime=1x under -race
// as a build-and-run sanity check.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ioa"
	"repro/internal/store"
)

func benchStates(n int) []ioa.State {
	out := make([]ioa.State, n)
	for i := range out {
		out[i] = ioa.KeyState(fmt.Sprintf("state/%04d/with-a-medium-length-key", i))
	}
	return out
}

// BenchmarkStoreIntern fills a store from empty: short is 1 024 keys of
// 37 bytes, the size the store was first tuned on; arbiter is 32 768
// keys of 283 bytes — the benchmark's arbiter3-check encoding, 9 MB of
// arena — where hashing a key and growing the arena are what an intern
// costs. ns/key and B/key (allocated bytes per key, the arena's growth
// included) are the per-key readings.
func BenchmarkStoreIntern(b *testing.B) {
	long := make([]ioa.State, 32<<10)
	for i := range long {
		long[i] = ioa.KeyState(fmt.Sprintf("%0283d", i))
	}
	for _, arm := range []struct {
		name   string
		states []ioa.State
	}{{"short", benchStates(1024)}, {"arbiter", long}} {
		b.Run(arm.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := store.New(store.Options{})
				for _, s := range arm.states {
					st.Intern(s)
				}
				if st.Len() != len(arm.states) {
					b.Fatal("bad count")
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			keys := float64(b.N * len(arm.states))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/keys, "ns/key")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/keys, "B/key")
		})
	}
}

func BenchmarkStoreProbeLookup(b *testing.B) {
	states := benchStates(1024)
	st := store.New(store.Options{})
	for _, s := range states {
		st.Intern(s)
	}
	p := st.NewProbe()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range states {
			if _, _, ok := p.Lookup(s); !ok {
				b.Fatal("miss")
			}
		}
	}
}
