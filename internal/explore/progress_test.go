package explore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/store"
)

// progressSink collects Progress snapshots under a lock; every explorer
// emits from one goroutine, but the contract only promises
// that sinks are internally synchronized.
type progressSink struct {
	mu    sync.Mutex
	snaps []obs.Progress
}

func (s *progressSink) on(p obs.Progress) {
	s.mu.Lock()
	s.snaps = append(s.snaps, p)
	s.mu.Unlock()
}

func (s *progressSink) all() []obs.Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.Progress(nil), s.snaps...)
}

// TestSeqProgressEmission: the sequential sweep emits a snapshot every
// seqProgressStride expansions (riding the cancellation-check branch)
// and always a final Done carrying the store footprint.
func TestSeqProgressEmission(t *testing.T) {
	sink := &progressSink{}
	o := obs.New(nil)
	o.Progress = sink.on
	a := modCounters(5, 8) // 32768 states: several strides' worth
	eng := New(Options{Obs: o})
	states, err := eng.Reach(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	snaps := sink.all()
	if len(snaps) < 3 {
		t.Fatalf("got %d snapshots over %d states, want mid-walk strides plus Done", len(snaps), len(states))
	}
	var mid, done int
	for _, p := range snaps {
		if p.Phase != "explore" {
			t.Fatalf("phase = %q", p.Phase)
		}
		if p.Done {
			done++
			if p.States != int64(len(states)) || p.Frontier != 0 {
				t.Fatalf("final snapshot %+v, want states=%d frontier=0", p, len(states))
			}
			if p.Occupancy != int64(len(states)) || p.ArenaBytes <= 0 {
				t.Fatalf("final snapshot store footprint missing: %+v", p)
			}
		} else {
			mid++
			if p.Frontier <= 0 {
				t.Fatalf("mid-walk snapshot with empty frontier: %+v", p)
			}
		}
	}
	if mid < 2 || done != 1 {
		t.Fatalf("mid=%d done=%d, want >=2 strides and exactly one Done", mid, done)
	}
}

// TestParallelProgressEmission: Reach emits one snapshot
// per BFS level with increasing Depth, then Done.
func TestParallelProgressEmission(t *testing.T) {
	sink := &progressSink{}
	o := obs.New(nil)
	o.Progress = sink.on
	a := modCounters(3, 4) // 64 states over many shallow levels
	eng := New(Options{Obs: o})
	states, err := eng.Reach(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	snaps := sink.all()
	if len(snaps) < 2 {
		t.Fatalf("got %d snapshots, want per-level plus Done", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if !last.Done || last.States != int64(len(states)) {
		t.Fatalf("final snapshot %+v, want Done with states=%d", last, len(states))
	}
	prevDepth := int64(0)
	for _, p := range snaps[:len(snaps)-1] {
		if p.Done {
			t.Fatalf("Done snapshot before the end: %+v", snaps)
		}
		if p.Depth < prevDepth {
			t.Fatalf("depth went backwards: %+v", snaps)
		}
		prevDepth = p.Depth
	}
}

// hopKey is the key of a hopCounter state, bare or as the one part of
// a composed state.
func hopKey(s ioa.State) string {
	if t, ok := s.(*ioa.TupleState); ok {
		return t.At(0).Key()
	}
	return s.Key()
}

// hopCounter is a 50-state KeyState system (+1 and ×2 modulo 50 from
// "0").
func hopCounter() ioa.Automaton {
	const m = 50
	val := func(s ioa.State) (v int) { fmt.Sscan(s.Key(), &v); return v }
	d := ioa.NewDef("hop")
	d.Start(ioa.KeyState("0"))
	always := func(ioa.State) bool { return true }
	d.Internal("inc", "hop", always, func(s ioa.State) ioa.State { return ioa.KeyState(fmt.Sprint((val(s) + 1) % m)) })
	d.Internal("dbl", "hop", always, func(s ioa.State) ioa.State { return ioa.KeyState(fmt.Sprint(val(s) * 2 % m)) })
	return d.MustBuild()
}

// TestEveryExitReports pins the one-emitter contract: every loop, on
// every way out, publishes the store gauges, adds exactly the admitted
// count to explore.states_admitted, and emits exactly one Done
// snapshot, last.
func TestEveryExitReports(t *testing.T) {
	const total = 50
	// Each loop returns the admitted count it reports to its caller
	// (-1 when the entry point returns none) and whether it found a
	// violation. The seq- arms explore the bare table, whose states the
	// kernel keeps on the heap; the par- arms explore it composed, whose
	// states the kernel decodes from their cell encodings instead.
	loops := []struct {
		name     string
		checks   bool // takes a predicate
		composed bool // wrapped in a one-component composition
		ext      bool
		run      func(ctx context.Context, e *Engine, a ioa.Automaton, pred func(ioa.State) bool) (int64, bool, error)
	}{
		{"seq-reach", false, false, false, func(ctx context.Context, e *Engine, a ioa.Automaton, _ func(ioa.State) bool) (int64, bool, error) {
			states, err := e.Reach(ctx, a)
			return int64(len(states)), false, err
		}},
		{"seq-check", true, false, false, func(ctx context.Context, e *Engine, a ioa.Automaton, pred func(ioa.State) bool) (int64, bool, error) {
			v, err := e.CheckInvariant(ctx, a, pred)
			return -1, v != nil, err
		}},
		{"par-reach", false, true, false, func(ctx context.Context, e *Engine, a ioa.Automaton, _ func(ioa.State) bool) (int64, bool, error) {
			states, err := e.Reach(ctx, a)
			return int64(len(states)), false, err
		}},
		{"par-check", true, true, false, func(ctx context.Context, e *Engine, a ioa.Automaton, pred func(ioa.State) bool) (int64, bool, error) {
			v, err := e.CheckInvariant(ctx, a, pred)
			return -1, v != nil, err
		}},
		{"census-ram", true, true, false, func(ctx context.Context, e *Engine, a ioa.Automaton, pred func(ioa.State) bool) (int64, bool, error) {
			sum, err := e.Census(ctx, a, pred, nil)
			return sum.States, sum.Violation != nil, err
		}},
		{"census-ext", true, true, true, func(ctx context.Context, e *Engine, a ioa.Automaton, pred func(ioa.State) bool) (int64, bool, error) {
			sum, err := e.Census(ctx, a, pred, nil)
			return sum.States, sum.Violation != nil, err
		}},
	}
	holds := func(ioa.State) bool { return true }
	exits := []struct {
		name    string
		limit   int
		pred    func(ioa.State) bool
		cancel  bool
		wantErr error
	}{
		{"complete", 0, holds, false, nil},
		{"violation", 0, func(s ioa.State) bool { return hopKey(s) != "7" }, false, nil},
		{"limit", 10, holds, false, ErrLimit},
		{"cancel", 0, holds, true, context.Canceled},
	}
	for _, loop := range loops {
		for _, exit := range exits {
			if exit.name == "violation" && !loop.checks {
				continue
			}
			t.Run(loop.name+"/"+exit.name, func(t *testing.T) {
				sink := &progressSink{}
				o := obs.New(nil)
				o.Progress = sink.on
				opts := Options{Limit: exit.limit, Obs: o}
				a := hopCounter()
				if loop.composed { // so ioa.Decoder can rebuild its states
					a = ioa.MustCompose("hop", a)
				}
				if loop.ext {
					opts.Spill = &store.SpillOptions{Dir: t.TempDir(), MemBudget: 64, BlockEvery: 4}
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if exit.cancel {
					cancel()
				}
				admitted, violated, err := loop.run(ctx, New(opts), a, exit.pred)
				if !errors.Is(err, exit.wantErr) || (exit.wantErr == nil && err != nil) {
					t.Fatalf("err = %v, want %v", err, exit.wantErr)
				}
				if violated != (exit.name == "violation") {
					t.Fatalf("violated = %t", violated)
				}
				snaps := sink.all()
				if len(snaps) == 0 {
					t.Fatal("no progress snapshot at all")
				}
				for i, p := range snaps {
					if p.Done != (i == len(snaps)-1) {
						t.Fatalf("snapshot %d of %d has Done=%t; want exactly one Done, last: %+v", i, len(snaps), p.Done, snaps)
					}
				}
				done := snaps[len(snaps)-1]
				if done.States <= 0 || (exit.name == "complete" && done.States != total) {
					t.Fatalf("Done snapshot reports %d states (reachable: %d)", done.States, total)
				}
				if admitted >= 0 && done.States != admitted {
					t.Fatalf("Done snapshot reports %d states, the caller got %d", done.States, admitted)
				}
				if got := o.Explore.States.Value(); got != done.States {
					t.Fatalf("explore.states_admitted = %d, want %d", got, done.States)
				}
				if got := o.Store.Occupancy.Value(); got <= 0 || got != done.Occupancy {
					t.Fatalf("store.occupancy gauge = %d, Done snapshot occupancy %d", got, done.Occupancy)
				}
			})
		}
	}
}
