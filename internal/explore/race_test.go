package explore_test

// Race stress tests for the parallel engine and the composition memo
// cache. Run under `go test -race`; the GOMAXPROCS sweep exercises
// both the degenerate (single-P) and genuinely concurrent schedules.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/arbiter/dist"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/figures"
	"repro/internal/graph"
	"repro/internal/ioa"
)

// withGOMAXPROCS runs f at each of the given GOMAXPROCS settings,
// restoring the original value afterwards.
func withGOMAXPROCS(t *testing.T, procs []int, f func(t *testing.T)) {
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, p := range procs {
		p := p
		t.Run(fmt.Sprintf("gomaxprocs=%d", p), func(t *testing.T) {
			runtime.GOMAXPROCS(p)
			f(t)
		})
	}
}

// TestRaceParallelReachPingPong hammers ParallelReach on the Fig. 2.1
// ping-pong, many iterations at several worker counts, checking size
// stability throughout.
func TestRaceParallelReachPingPong(t *testing.T) {
	withGOMAXPROCS(t, []int{1, 2, 4}, func(t *testing.T) {
		a := figures.Fig21()
		want, err := explore.New(explore.Options{Workers: 1, Limit: explore.DefaultLimit}).Reach(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		for iter := 0; iter < 20; iter++ {
			for _, w := range []int{2, 4, 8} {
				got, err := parallelReach(a, explore.Options{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("iter %d workers %d: %d states, want %d", iter, w, len(got), len(want))
				}
			}
		}
	})
}

// TestRaceParallelReachArbiterA3r hammers the retry-hardened arbiter
// (reliable channels) — the largest composite in the repo, with the
// deepest memo traffic. Its full state space is beyond exhaustive
// exploration (the seed only simulates it), so the stress runs under
// a state budget and asserts the ErrLimit partial-result contract
// holds identically across worker counts.
func TestRaceParallelReachArbiterA3r(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tr, err := graph.Figure32()
	if err != nil {
		t.Fatal(err)
	}
	h, err := dist.NewHardened(tr, 0, faults.Injection{})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 2000
	want, err := explore.New(explore.Options{Workers: 1, Limit: budget}).Reach(context.Background(), h.A3R)
	if !errors.Is(err, explore.ErrLimit) {
		t.Fatalf("sequential Reach err = %v, want ErrLimit (A3R should exceed %d states)", err, budget)
	}
	withGOMAXPROCS(t, []int{1, 4}, func(t *testing.T) {
		for _, w := range []int{2, 8} {
			got, gotErr := parallelReach(h.A3R, explore.Options{Workers: w, Limit: budget})
			if (gotErr == nil) != (err == nil) {
				t.Fatalf("workers %d: err = %v, sequential err = %v", w, gotErr, err)
			}
			if len(got) != len(want) {
				t.Fatalf("workers %d: %d states, want %d", w, len(got), len(want))
			}
		}
	})
}

// TestRaceSharedCompositeMemo runs several ParallelReach calls
// concurrently against ONE shared composite, so the memo cache sees
// simultaneous readers and writers from independent explorations.
func TestRaceSharedCompositeMemo(t *testing.T) {
	tr, err := graph.Figure32()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := dist.New(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := explore.New(explore.Options{Workers: 1, Limit: explore.DefaultLimit}).Reach(context.Background(), sys.A3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := parallelReach(sys.A3, explore.Options{Workers: 1 + g%4})
			if err != nil {
				errs <- err
				return
			}
			if len(got) != len(want) {
				errs <- fmt.Errorf("goroutine %d: %d states, want %d", g, len(got), len(want))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRaceMemoMixedSequentialParallel interleaves sequential Reach and
// ParallelCheck on one composite — memo reads from the coordinating
// goroutine race-test against worker writes.
func TestRaceMemoMixedSequentialParallel(t *testing.T) {
	a := ioa.MustCompose("pp", figures.Fig21A(), figures.Fig21B())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := explore.New(explore.Options{Workers: 1, Limit: explore.DefaultLimit}).Reach(context.Background(), a); err != nil {
				t.Error(err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := parallelCheck(a, explore.Options{Workers: 4}, func(ioa.State) bool { return true })
			if err != nil || v != nil {
				t.Errorf("v=%v err=%v", v, err)
			}
		}()
	}
	wg.Wait()
}
