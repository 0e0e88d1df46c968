package proof_test

// The relay between A's walk and the checks at two or more workers:
// panics on either side reach the caller and leave no goroutine behind,
// Map runs on the caller's goroutine under every check, and a failure
// several batches into the walk is reported as the sequential loop
// reports it.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/proof"
)

// goid is the current goroutine's number, read off runtime.Stack's
// header line, "goroutine N [running]:".
func goid(t *testing.T) uint64 {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	if len(f) > 1 && f[0] == "goroutine" {
		if id, err := strconv.ParseUint(f[1], 10, 64); err == nil {
			return id
		}
	}
	t.Fatalf("cannot read a goroutine number from %q", buf)
	return 0
}

// mustPanic calls f and returns what it panicked with, failing t if it
// returned.
func mustPanic(t *testing.T, name string, f func() error) (val any) {
	t.Helper()
	defer func() { val = recover() }()
	err := f()
	t.Fatalf("%s returned %v; want a panic", name, err)
	return nil
}

// settle waits for the goroutine count to fall back to base.
func settle(t *testing.T, name string, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines 10 s after the call, %d before it", name, runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// panicky panics with *boom on the call numbered at of its Next.
type panicky struct {
	ioa.Automaton
	calls *atomic.Int64
	at    int64
	boom  *string
}

func (p panicky) Next(sc *ioa.Scratch, s ioa.State, act ioa.Action, yield func(ioa.State) bool) bool {
	if p.calls.Add(1) == p.at {
		panic(p.boom)
	}
	return p.Automaton.Next(sc, s, act, yield)
}

// TestMappingWalkPanics: a panic in A's Next, which runs on the walk's
// goroutine at two or more workers, and one in Map past the relay's
// first batch both reach the caller of VerifyOpts with their own value,
// and the goroutine count returns to what it was. After Map's panic the
// walk must stop short of its end: the relay is a few batches ahead of
// the replay at most, and the engine checks for the cancel every 64
// states. The four-user h₂ walks 1 062 states of A, dozens of batches.
func TestMappingWalkPanics(t *testing.T) {
	c := chainAt(t, 4, 0)
	var calls atomic.Int64
	if _, err := explore.New(explore.Options{}).Graph(context.Background(), counting{c.H2.A, &calls}); err != nil {
		t.Fatal(err)
	}
	nexts := calls.Load()
	for _, w := range batteryWorkers {
		opts := explore.Options{Workers: w}

		calls.Store(0)
		boom := "A's Next gives up"
		a := panicky{c.H2.A, &calls, nexts / 2, &boom}
		base := runtime.NumGoroutine()
		name := fmt.Sprintf("A panics, workers=%d", w)
		h := &proof.PossMapping{A: a, B: c.H2.B, Map: c.H2.Map}
		if got := mustPanic(t, name, func() error { return h.VerifyOpts(opts) }); got != &boom {
			t.Errorf("%s: panicked with %v, want A's value", name, got)
		}
		settle(t, name, base)

		calls.Store(0)
		mapped, bad := 0, errors.New("Map gives up")
		h = &proof.PossMapping{A: counting{c.H2.A, &calls}, B: c.H2.B, Map: func(s ioa.State) []ioa.State {
			if mapped++; mapped == 300 {
				panic(bad)
			}
			return c.H2.Map(s)
		}}
		base = runtime.NumGoroutine()
		name = fmt.Sprintf("Map panics, workers=%d", w)
		if got := mustPanic(t, name, func() error { return h.VerifyOpts(opts) }); got != bad {
			t.Errorf("%s: panicked with %v, want Map's value", name, got)
		}
		settle(t, name, base)
		if got := calls.Load(); got >= nexts {
			t.Errorf("%s: A's Next called %d times, a whole walk's %d: the walk ran on past the panic", name, got, nexts)
		}
	}
}

// TestMapRunsOnCallingGoroutine: under each check that walks A, every
// Map call runs on the goroutine that called the check, at every
// battery worker count.
func TestMapRunsOnCallingGoroutine(t *testing.T) {
	c := chainAt(t, 3, 0)
	always := func(ioa.State) bool { return true }
	never := func(ioa.Action) bool { return false }
	for name, check := range map[string]func(*proof.PossMapping, explore.Options) error{
		"VerifyOpts":                  (*proof.PossMapping).VerifyOpts,
		"FairSatisfiesViaMappingOpts": proof.FairSatisfiesViaMappingOpts,
		"TransferDownOpts": func(h *proof.PossMapping, o explore.Options) error {
			return h.TransferDownOpts(o, always, never, always, never)
		},
	} {
		for _, w := range batteryWorkers {
			caller, calls, elsewhere := goid(t), 0, 0
			h := &proof.PossMapping{A: c.H2.A, B: c.H2.B, Map: func(s ioa.State) []ioa.State {
				calls++
				if goid(t) != caller {
					elsewhere++
				}
				return c.H2.Map(s)
			}}
			if err := check(h, explore.Options{Workers: w}); err != nil {
				t.Fatalf("%s, workers=%d: %v", name, w, err)
			}
			if calls == 0 || elsewhere != 0 {
				t.Errorf("%s, workers=%d: %d of %d Map calls ran off the calling goroutine", name, w, elsewhere, calls)
			}
		}
	}
}

// TestKernelFailureSeveralBatchesIn: h₂ on the four-user hierarchy with
// Map perturbed to drop every possibility of the state admitted in the
// middle of the walk, a few thousand relayed calls in. The kernel must
// name the step into that state at every worker count, as the
// reference loop does; a relay that lost or reordered a batch would
// check rows against the wrong states.
func TestKernelFailureSeveralBatchesIn(t *testing.T) {
	c := chainAt(t, 4, 0)
	reach, err := explore.New(explore.Options{Workers: 1}).Reach(context.Background(), c.H2.A)
	if err != nil {
		t.Fatal(err)
	}
	target := reach[len(reach)/2].Key()
	h := &proof.PossMapping{A: c.H2.A, B: c.H2.B, Map: func(s ioa.State) []ioa.State {
		if s.Key() == target {
			return nil
		}
		return c.H2.Map(s)
	}}
	err = agree(t, fmt.Sprintf("h2 without state %d of %d", len(reach)/2, len(reach)), h, explore.Options{})
	if !errors.Is(err, proof.ErrNotPossibilities) || !strings.Contains(err.Error(), fmt.Sprintf("%q) of %s", target, c.H2.A.Name())) {
		t.Errorf("want the failure on the step into state %d, got %v", len(reach)/2, err)
	}
}
