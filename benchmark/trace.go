package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/store"
)

// The traced run attributes a workload's cost to layers from outside
// the program: it re-runs the timed call with the observability handle
// the program already accepts, to read the counters it already
// exports, and then drives each layer's public functions over the
// workload's own state set on freshly built instances. Every timed
// region is a span; spans are kept in memory and written to
// trace-<workload>.json when the child ends.

// A span is one timed region. Parent is the ID of the span that was
// open when this one began, -1 for the root. SelfNS is the span's
// duration minus its children's.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	SelfNS   int64  `json:"self_ns"`
}

// tracer records spans on the benchmark's own goroutine.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: now()} }

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, fn func() error) (time.Duration, error) {
	id, parent := len(t.spans), -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	start := now()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, StartNS: start.Sub(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	err := fn()
	d := now().Sub(start)
	t.open = t.open[:len(t.open)-1]
	t.spans[id].EndNS = t.spans[id].StartNS + d.Nanoseconds()
	return d, err
}

// laid records a child of the open span that lasted d in total but
// was accumulated over alternating blocks: it is laid out from start,
// and laid returns where it ends.
func (t *tracer) laid(name string, start time.Time, d time.Duration) time.Time {
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: t.open[len(t.open)-1], Name: name, Workload: t.workload,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: start.Add(d).Sub(t.t0).Nanoseconds(),
	})
	return start.Add(d)
}

func (t *tracer) write(path string) error {
	for i := range t.spans {
		t.spans[i].SelfNS = t.spans[i].EndNS - t.spans[i].StartNS
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].SelfNS -= s.EndNS - s.StartNS
		}
	}
	return writeJSON(path, t.spans)
}

// traceCtx is one traced child.
type traceCtx struct {
	t     *tracer
	w     *workload
	quick bool
	tmp   string
	// base is the untraced cold verdict time of this workload and
	// ratioBase that of w.ratioTo, both measured by the parent in
	// children of their own.
	base, ratioBase time.Duration
	verdictNS       int64
	m               map[string]float64
	exact           map[string]int64
}

func traceChild(spec childSpec, w *workload, tmp string) (childResult, error) {
	tc := &traceCtx{
		t: newTracer(w.name), w: w, quick: spec.Quick, tmp: tmp,
		base: time.Duration(spec.BaseVerdictNS), ratioBase: time.Duration(spec.RatioVerdictNS),
		m: map[string]float64{}, exact: map[string]int64{},
	}
	var res childResult
	res.op("traced run", func() error {
		_, err := tc.t.do("trace", func() error { return w.trace(tc) })
		return err
	})
	if tc.base > 0 {
		tc.m["obs.overhead_ratio"] = float64(tc.verdictNS) / float64(tc.base)
		if tc.ratioBase > 0 {
			tc.m["cluster.overhead_ratio"] = float64(tc.base) / float64(tc.ratioBase)
		}
	}
	res.VerdictNS, res.Metrics, res.Exact = tc.verdictNS, tc.m, tc.exact
	return res, tc.t.write(filepath.Join(spec.Dir, "trace-"+w.name+".json"))
}

// runtimeSample reads the collector's accounts and the process's CPU
// time.
type runtimeSample struct {
	gcCPU, procCPU float64
	alloc, cycles  uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	out := runtimeSample{gcCPU: s[0].Value.Float64(), alloc: s[1].Value.Uint64(), cycles: s[2].Value.Uint64()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		out.procCPU = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	return out
}

// verdict runs fn — the workload's timed call under an observability
// handle — inside the "verdict" span and records what the program's
// own counters and the runtime say about it.
func (tc *traceCtx) verdict(fn func(o *obs.Obs) (outcome, error)) (outcome, obs.Snapshot, error) {
	o := obs.New(now)
	var out outcome
	before := readRuntime()
	d, err := tc.t.do("verdict", func() (err error) {
		out, err = fn(o)
		return err
	})
	after := readRuntime()
	snap := o.Reg.Snapshot()
	if err != nil {
		return out, snap, err
	}
	tc.verdictNS = d.Nanoseconds()
	tc.exact["states"] = out.states
	if cpu := after.procCPU - before.procCPU; cpu > 0 {
		tc.m["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / cpu
	}
	tc.m["runtime.alloc_bytes_per_state"] = float64(after.alloc-before.alloc) / float64(out.states)
	tc.m["runtime.num_gc"] = float64(after.cycles - before.cycles)

	c := snap.Counters
	hits, misses := c["memo.next_hit"]+c["memo.enabled_hit"], c["memo.next_miss"]+c["memo.enabled_miss"]
	if hits+misses > 0 {
		tc.m["ioa.memo_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	levels := c["explore.levels"] + c["dist.levels"]
	tc.m["explore.levels"], tc.exact["explore.levels"] = float64(levels), levels
	if emitted := c["explore.successors_emitted"]; emitted > 0 {
		tc.setSuccessors(emitted, c["explore.states_admitted"])
	}
	return out, snap, nil
}

// instanceVerdict is verdict for workloads whose timed call is
// instance.verdict on a fresh instance.
func (tc *traceCtx) instanceVerdict() (outcome, obs.Snapshot, error) {
	var in *instance
	if _, err := tc.t.do("setup", func() (err error) {
		in, err = tc.w.build(tc.quick, tc.tmp)
		return err
	}); err != nil {
		return outcome{}, obs.Snapshot{}, err
	}
	defer in.close()
	return tc.verdict(func(o *obs.Obs) (outcome, error) { return in.verdict(o, tc.w.workers) })
}

// setSuccessors records the wasted-work ratio: successors the engine
// generated against states it admitted.
func (tc *traceCtx) setSuccessors(emitted, admitted int64) {
	tc.m["explore.successors_emitted"] = float64(emitted)
	tc.m["explore.duplicate_ratio"] = 1 - float64(admitted)/float64(emitted)
}

// workersComparison times the same verdict, untraced, at the
// workload's other worker count on a fresh instance, and returns the
// one-worker wall time.
func (tc *traceCtx) workersComparison() (time.Duration, error) {
	in, err := tc.w.build(tc.quick, tc.tmp)
	if err != nil {
		return 0, err
	}
	defer in.close()
	alt, err := tc.t.do(fmt.Sprintf("verdict.workers%d", tc.w.altWorkers), func() error {
		_, err := in.verdict(nil, tc.w.altWorkers)
		return err
	})
	if err != nil {
		return 0, err
	}
	one, two := tc.base, alt
	if tc.w.altWorkers == 1 {
		one, two = alt, tc.base
	}
	tc.m["explore.workers1_s"] = one.Seconds()
	if two > 0 {
		tc.m["explore.speedup_workers2"] = float64(one) / float64(two)
	}
	return one, nil
}

// pass runs one replay pass in a span of its own, from a collected
// heap, so that it pays for the garbage it makes itself and not for
// what the pass before it left behind.
func (tc *traceCtx) pass(name string, fn func() error) (time.Duration, error) {
	runtime.GC()
	return tc.t.do(name, fn)
}

// keySet is a list of state encodings with their hashes.
type keySet struct {
	arena  []byte
	offs   []int
	hashes []uint64
}

func (k *keySet) len() int         { return len(k.offs) - 1 }
func (k *keySet) key(i int) []byte { return k.arena[k.offs[i]:k.offs[i+1]] }

// layerCosts are the replayed costs of the layers under an explorer,
// in ns per admitted state (enabled, step), per encoded state
// (encode) and per key (hash, insert, hit).
type layerCosts struct {
	enabled, step, encode, hash, insert, hit float64
	// successors is the exact number of successor states per admitted
	// state.
	successors float64
}

// perAdmitted is what the replayed layers predict one admitted state
// costs an explorer that interns every successor: one Enabled, its
// steps, and per successor an encode, a hash and a probe, of which
// exactly one per admitted state inserts.
func (c layerCosts) perAdmitted() float64 {
	return c.enabled + c.step + c.successors*(c.encode+c.hash) + c.insert + (c.successors-1)*c.hit
}

// replayIOA drives the automaton layer over states (in engine order)
// on a, which must be freshly built so that its memo caches are as
// cold as in the timed call. It returns the states' encodings.
func (tc *traceCtx) replayIOA(a ioa.Automaton, states []ioa.State, c *layerCosts) *keySet {
	n := int64(len(states))
	inputs := a.Sig().Inputs().Sorted()
	// Enabled and the steps alternate over blocks of states, as close to
	// the engines' per-state interleaving (and its cache behaviour) as
	// two clock reads per block allow; the engines step Enabled(s) plus
	// the input actions.
	const block = 64
	var acts []ioa.Action
	var offs []int
	var succ int64
	count := func(ioa.State) bool { succ++; return true }
	var dEnabled, dStep time.Duration
	tc.pass("replay.ioa.walk", func() error {
		begin := now()
		for lo := 0; lo < len(states); lo += block {
			part := states[lo:min(lo+block, len(states))]
			acts, offs = acts[:0], append(offs[:0], 0)
			t0 := now()
			for _, s := range part {
				acts = append(acts, a.Enabled(s)...)
				offs = append(offs, len(acts))
			}
			t1 := now()
			for i, s := range part {
				for _, act := range acts[offs[i]:offs[i+1]] {
					ioa.VisitNext(a, s, act, count)
				}
				for _, act := range inputs {
					ioa.VisitNext(a, s, act, count)
				}
			}
			dEnabled += t1.Sub(t0)
			dStep += now().Sub(t1)
		}
		tc.t.laid("replay.ioa.step", tc.t.laid("replay.ioa.enabled", begin, dEnabled), dStep)
		return nil
	})
	c.enabled, c.step = perItem(dEnabled, n), perItem(dStep, n)
	c.successors = float64(succ) / float64(n)

	var buf []byte
	var bytes int64
	d, _ := tc.pass("replay.ioa.encode", func() error {
		for _, s := range states {
			buf = ioa.AppendState(buf[:0], s)
			bytes += int64(len(buf))
		}
		return nil
	})
	c.encode = perItem(d, n)

	keys := &keySet{offs: make([]int, 1, len(states)+1), hashes: make([]uint64, len(states))}
	for _, s := range states {
		keys.arena = ioa.AppendState(keys.arena, s)
		keys.offs = append(keys.offs, len(keys.arena))
	}
	tc.m["ioa.enabled_ns_per_state"] = c.enabled
	tc.m["ioa.step_ns_per_state"] = c.step
	tc.m["ioa.successors_per_state"] = c.successors
	tc.m["ioa.encode_ns_per_state"] = c.encode
	tc.m["ioa.encoded_bytes_per_state"] = float64(bytes) / float64(n)
	tc.exact["ioa.successors"] = succ
	tc.exact["ioa.encoded_bytes"] = bytes
	if _, counted := tc.m["explore.successors_emitted"]; !counted {
		// The sequential loops keep no successor counter; they emit
		// exactly the successors this replay counted.
		tc.setSuccessors(succ, n)
	}
	return keys
}

// replayStore drives the in-RAM store over keys: hash every key,
// intern them all (every one new), intern them again (every one a
// hit).
func (tc *traceCtx) replayStore(keys *keySet, c *layerCosts) error {
	n := int64(keys.len())
	d, _ := tc.pass("replay.store.hash", func() error {
		for i := range keys.hashes {
			keys.hashes[i] = store.Hash(keys.key(i))
		}
		return nil
	})
	c.hash = perItem(d, n)
	st := store.New(store.Options{})
	pass := func(name string, wantFresh bool) (time.Duration, error) {
		return tc.pass(name, func() error {
			for i := range keys.hashes {
				if _, fresh := st.InternEncoded(keys.key(i), keys.hashes[i]); fresh != wantFresh {
					return fmt.Errorf("%s: key %d fresh=%v", name, i, fresh)
				}
			}
			return nil
		})
	}
	d, err := pass("replay.store.intern_insert", true)
	if err != nil {
		return err
	}
	c.insert = perItem(d, n)
	if d, err = pass("replay.store.intern_hit", false); err != nil {
		return err
	}
	c.hit = perItem(d, n)
	tc.m["store.hash_ns_per_key"] = c.hash
	tc.m["store.intern_insert_ns_per_key"] = c.insert
	tc.m["store.intern_hit_ns_per_key"] = c.hit
	tc.m["store.arena_bytes_per_state"] = float64(st.Stats().ArenaBytes) / float64(n)
	return nil
}

// residual reports what the replayed layers leave unexplained of the
// one-worker wall time per state: queueing, sort/merge, limit and
// progress checks, and the collector's work on the retained graph.
func (tc *traceCtx) residual(oneWorker time.Duration, states int64, c layerCosts) {
	tc.m["explore.residual_ns_per_state"] = perItem(oneWorker, states) - c.perAdmitted()
}

func traceArbiterCheck(tc *traceCtx) error {
	out, _, err := tc.instanceVerdict()
	if err != nil {
		return err
	}
	if _, err := tc.workersComparison(); err != nil {
		return err
	}
	_, err = tc.t.do("replay", func() error {
		n := pick(tc.quick, checkUsers, checkUsersQuick)
		var states []ioa.State
		if _, err := tc.t.do("replay.states", func() error {
			sys, err := arbiterOn(n, 0)
			if err != nil {
				return err
			}
			states, err = explore.New(explore.Options{Workers: 1}).Reach(ctx, sys)
			return err
		}); err != nil {
			return err
		}
		fresh, err := arbiterOn(n, 0)
		if err != nil {
			return err
		}
		var c layerCosts
		keys := tc.replayIOA(fresh, states, &c)
		if err := tc.replayStore(keys, &c); err != nil {
			return err
		}
		// The timed call runs at one worker, so the parent's cold
		// untraced repetition is the one-worker wall time.
		tc.residual(tc.base, out.states, c)
		return nil
	})
	return err
}

func traceCertify(tc *traceCtx) error {
	n := pick(tc.quick, certifyUsers, certifyUsersQuick)
	var h *hierarchy
	if _, err := tc.t.do("setup", func() (err error) {
		h, err = buildHierarchy(n, 0)
		return err
	}); err != nil {
		return err
	}
	var d2, d1 time.Duration
	out, _, err := tc.verdict(func(o *obs.Obs) (outcome, error) {
		ioa.SetObsDeep(h.a3r, o)
		ioa.SetObsDeep(h.a2r, o)
		opts := explore.Options{Workers: tc.w.workers, Obs: o}
		var err error
		if d2, err = tc.t.do("verdict.h2", func() error { return h.h2.VerifyOpts(opts) }); err != nil {
			return outcome{}, err
		}
		d1, err = tc.t.do("verdict.h1", func() error { return h.h1.VerifyOpts(opts) })
		return outcome{states: o.Proof.MapStates.Value()}, err
	})
	if err != nil {
		return err
	}
	if want := 2 * int64(pick(tc.quick, certifyStates, certifyStatesQuick)); out.states != want {
		return fmt.Errorf("mapping conditions checked on %d states, pinned count is %d", out.states, want)
	}
	tc.m["proof.verify_h2_s"] = d2.Seconds()
	tc.m["proof.verify_h1_s"] = d1.Seconds()
	if _, err := tc.workersComparison(); err != nil {
		return err
	}

	_, err = tc.t.do("replay", func() error {
		// Reach(A) and Reach(B) alone, for both mappings, on fresh
		// automata at the verdict's worker count.
		f, err := buildHierarchy(n, 0)
		if err != nil {
			return err
		}
		reach := make([][]ioa.State, 4)
		dReach, err := tc.t.do("replay.proof.reach", func() error {
			for i, a := range []ioa.Automaton{f.a2, f.a3r, f.a1, f.a2r} {
				if reach[i], err = explore.New(explore.Options{Workers: tc.w.workers}).Reach(ctx, a); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		dMap, _ := tc.t.do("replay.proof.map", func() error {
			for _, s := range reach[1] {
				f.h2.Map(s)
			}
			for _, s := range reach[3] {
				f.h1.Map(s)
			}
			return nil
		})
		verify := d2 + d1
		tc.m["proof.map_ns_per_state"] = perItem(dMap, out.states)
		tc.m["proof.reach_share"] = float64(dReach) / float64(verify)
		tc.m["proof.conditions_ns_per_state"] = perItem(verify-dReach-dMap, out.states)

		// The automaton and store layers under the Reach passes, over
		// the larger system's states in sequential engine order.
		g, err := buildHierarchy(n, 0)
		if err != nil {
			return err
		}
		var states []ioa.State
		if _, err := tc.t.do("replay.states", func() error {
			states, err = explore.New(explore.Options{Workers: 1}).Reach(ctx, g.a3r)
			return err
		}); err != nil {
			return err
		}
		if g, err = buildHierarchy(n, 0); err != nil {
			return err
		}
		var c layerCosts
		return tc.replayStore(tc.replayIOA(g.a3r, states, &c), &c)
	})
	return err
}

func traceGrid(tc *traceCtx, kind gridKind) error {
	g, err := gridFor(tc.quick)
	if err != nil {
		return err
	}
	var out outcome
	var snap obs.Snapshot
	if kind == gridCluster {
		// The cluster result carries numbers the instance's verdict
		// does not return, so the traced call is written out here.
		ln, err := listen()
		if err != nil {
			return err
		}
		var res cluster.Result
		out, snap, err = tc.verdict(func(o *obs.Obs) (outcome, error) {
			var err error
			res, err = runCluster(ln, clusterConfig(g, o, tc.w.workers))
			return outcome{states: res.States}, err
		})
		if err != nil {
			return err
		}
		if err := gridClosedForm(g, res.States, res.Depth, 1); err != nil {
			return err
		}
		var max, sum int64
		for _, n := range res.PerRank {
			sum += n
			if n > max {
				max = n
			}
		}
		procs := int64(len(res.PerRank))
		tc.m["cluster.barrier_wait_share"] = float64(res.BarrierWaitNS) / float64(procs*tc.verdictNS)
		tc.m["cluster.sent_encs_per_state"] = float64(snap.Counters["dist.sent_encs"]) / float64(out.states)
		tc.m["cluster.rank_imbalance"] = float64(max) * float64(procs) / float64(sum)
	} else if out, snap, err = tc.instanceVerdict(); err != nil {
		return err
	}
	if kind == gridSpill {
		tc.m["store.spill.runs"] = float64(snap.Gauges["store.spill_runs"])
		tc.m["store.spill.disk_bytes_per_state"] = float64(snap.Gauges["store.spilled_bytes"]) / float64(out.states)
		tc.exact["store.spill.runs"] = snap.Gauges["store.spill_runs"]
	}
	var oneWorker time.Duration
	if tc.w.altWorkers != 0 {
		if oneWorker, err = tc.workersComparison(); err != nil {
			return err
		}
	}

	_, err = tc.t.do("replay", func() error {
		states := make([]ioa.State, 0, g.States())
		if _, err := tc.t.do("replay.states", func() error {
			_, err := gridCensus(g, gridRAM, 2, nil, nil, nil, func(s ioa.State) { states = append(states, s) })
			return err
		}); err != nil {
			return err
		}
		var c layerCosts
		keys := tc.replayIOA(g, states, &c)
		if kind == gridSpill {
			return tc.replaySpill(keys)
		}
		if err := tc.replayStore(keys, &c); err != nil {
			return err
		}
		if kind == gridRAM {
			tc.residual(oneWorker, out.states, c)
		}
		return nil
	})
	return err
}

// replaySpill drives the disk-spilling seen set and the two frontiers
// over keys with the workload's own budget: intern all (every one
// new) and flush, intern all again (every one a hit served from the
// runs), then push and drain each frontier.
func (tc *traceCtx) replaySpill(keys *keySet) error {
	n := int64(keys.len())
	for i := range keys.hashes {
		keys.hashes[i] = store.Hash(keys.key(i))
	}
	dir := filepath.Join(tc.tmp, "replay")
	sp, err := store.NewSpill(*spillOptions(tc.quick, dir))
	if err != nil {
		return err
	}
	defer sp.Close()
	pass := func(name string, wantFresh bool, after func() error) (time.Duration, error) {
		return tc.pass(name, func() error {
			for i := range keys.hashes {
				if _, fresh := sp.InternEncoded(keys.key(i), keys.hashes[i]); fresh != wantFresh {
					return fmt.Errorf("%s: key %d fresh=%v (%v)", name, i, fresh, sp.Err())
				}
			}
			return after()
		})
	}
	d, err := pass("replay.store.spill.insert", true, sp.Flush)
	if err != nil {
		return err
	}
	tc.m["store.spill.insert_ns_per_key"] = perItem(d, n)
	if d, err = pass("replay.store.spill.hit", false, sp.Err); err != nil {
		return err
	}
	tc.m["store.spill.hit_ns_per_key"] = perItem(d, n)

	disk, err := store.NewDiskFrontier(dir)
	if err != nil {
		return err
	}
	defer disk.Close()
	for _, fr := range []struct {
		name string
		f    store.Frontier
	}{{"disk", disk}, {"mem", store.NewMemFrontier()}} {
		f := fr.f
		d, err := tc.pass("replay.store.frontier."+fr.name, func() error {
			for i := 0; i < keys.len(); i++ {
				if err := f.Push(keys.key(i)); err != nil {
					return err
				}
			}
			drained := 0
			if err := f.Drain(func([]byte) error { drained++; return nil }); err != nil {
				return err
			}
			if drained != keys.len() {
				return fmt.Errorf("frontier drained %d of %d keys", drained, keys.len())
			}
			return nil
		})
		if err != nil {
			return err
		}
		tc.m["store.frontier."+fr.name+"_ns_per_key"] = perItem(d, n)
	}
	return nil
}

func traceLamport(tc *traceCtx) error {
	out, _, err := tc.instanceVerdict()
	if err != nil {
		return err
	}
	tc.m["induct.candidates"] = float64(out.exact["candidates"])
	tc.m["induct.transitions"] = float64(out.exact["transitions"])
	tc.exact["induct.candidates"] = out.exact["candidates"]
	tc.exact["induct.transitions"] = out.exact["transitions"]

	_, err = tc.t.do("replay", func() error {
		l, err := lamportFor(tc.quick)
		if err != nil {
			return err
		}
		dom, inv := l.Domain(), l.Inv()
		var n int64
		dVisit, err := tc.t.do("replay.domain.visit", func() error {
			return dom.Visit(ctx, func(ioa.State) error { n++; return nil })
		})
		if err != nil {
			return err
		}
		var holds int64
		dEval, err := tc.t.do("replay.lattice.eval", func() error {
			return dom.Visit(ctx, func(s ioa.State) error {
				if inv.Holds(s) {
					holds++
				}
				return nil
			})
		})
		if err != nil {
			return err
		}
		if n != out.states || holds != out.exact["candidates"] {
			return errors.New("replay walked a different domain than the verdict")
		}
		visit, eval := perItem(dVisit, n), perItem(dEval-dVisit, n)
		tc.m["domain.visit_ns_per_state"] = visit
		tc.m["lattice.eval_ns_per_state"] = eval
		tc.m["induct.residual_ns_per_state"] = perItem(tc.base, n) - visit - eval
		return nil
	})
	return err
}
