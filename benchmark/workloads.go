package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/arbiter/dist"
	"repro/internal/arbiter/graphlevel"
	"repro/internal/arbiter/mapping"
	"repro/internal/arbiter/spec"
	"repro/internal/arbiter/users"
	"repro/internal/cluster"
	"repro/internal/domain"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/induct"
	"repro/internal/ioa"
	"repro/internal/lattice"
	"repro/internal/mutex"
	"repro/internal/obs"
	"repro/internal/proof"
	"repro/internal/store"
	"repro/internal/testseed"
)

// A workload is one named verdict on one pinned instance. The timed
// instance does not depend on the seed: a verifier's input is the
// system it certifies, and the driver compares runs across seeds, so a
// seed that changed the instance would show as spread. The seed picks
// the preflight's oracle instances and must-fail parameters instead.
type workload struct {
	name string
	// why is the one sentence BENCHMARK.json records.
	why string
	// workers is Options.Workers of the timed call; altWorkers, when
	// non-zero, is the worker count of the traced run's comparison
	// verdict (explore.speedup_workers2).
	workers, altWorkers int
	// ratioTo names the workload whose verdict_s is the base of
	// cluster.overhead_ratio.
	ratioTo string
	// build sets the instance up: automaton, mapping or domain,
	// listener, spill directory under tmp. Everything it does is
	// setup_s.
	build func(quick bool, tmp string) (*instance, error)
	// preflight lists the oracle and must-fail arms.
	preflight func(seed int64, quick bool, tmp string) []arm
	// confirm, when non-nil, lists the full-size ReferenceReach
	// confirmations of the pinned counts.
	confirm func() []arm
	// trace runs the per-layer replays.
	trace func(tc *traceCtx) error
}

// An instance is a built workload.
type instance struct {
	// verdict is the one timed call. It returns an error when the call
	// fails, the verdict is wrong, or a count differs from its oracle.
	// o is nil except in the traced run.
	verdict func(o *obs.Obs, workers int) (outcome, error)
	close   func()
}

// outcome is what a verdict established.
type outcome struct {
	// states is the workload's state count: admitted states, or domain
	// states for induct.
	states int64
	// exact holds counts that repeat exactly on every run.
	exact map[string]int64
}

// An arm is one preflight operation.
type arm struct {
	name string
	run  func() error
}

var ctx = context.Background()

var workloads = []*workload{
	{
		name:    "arbiter3-check",
		why:     "the paper's headline system on the sequential witness-bearing loop: composite stepping, memo and GC dominate, the store must not",
		workers: 1, altWorkers: 2,
		build:     buildArbiterCheck,
		preflight: preflightArbiterCheck,
		confirm:   confirmArbiterCheck,
		trace:     traceArbiterCheck,
	},
	{
		name:    "arbiter-certify",
		why:     "Lemmas 39/46 mechanised: half possibilities-mapping checks, half parallel Reach on open automata, unlike the closed-system check",
		workers: 2, altWorkers: 1,
		build:     buildCertify,
		preflight: preflightCertify,
		confirm:   confirmCertify,
		trace:     traceCertify,
	},
	{
		name:    "grid-census",
		why:     "trivial step function and half a million short encodings: hashing, interning and the per-level sort/merge dominate, stepping does not",
		workers: 2, altWorkers: 1,
		build:     func(quick bool, _ string) (*instance, error) { return buildGrid(quick, gridRAM, "") },
		preflight: func(seed int64, _ bool, _ string) []arm { return preflightGrid(seed, gridRAM, "") },
		confirm:   confirmGrid,
		trace:     func(tc *traceCtx) error { return traceGrid(tc, gridRAM) },
	},
	{
		name:    "grid-spill",
		why:     "the same input with the seen set 26 times its hot budget: run flushes, bloom/index/block reads and the disk frontier dominate",
		workers: 1,
		build:   func(quick bool, tmp string) (*instance, error) { return buildGrid(quick, gridSpill, tmp) },
		preflight: func(seed int64, _ bool, tmp string) []arm {
			return preflightGrid(seed, gridSpill, tmp)
		},
		trace: func(tc *traceCtx) error { return traceGrid(tc, gridSpill) },
	},
	{
		name:    "grid-cluster",
		why:     "the same input through gob, TCP and level barriers on two ranks: its ratio to grid-census is the wire and barrier tax",
		workers: 2,
		ratioTo: "grid-census",
		build:   func(quick bool, _ string) (*instance, error) { return buildGrid(quick, gridCluster, "") },
		preflight: func(seed int64, _ bool, _ string) []arm {
			return preflightGrid(seed, gridCluster, "")
		},
		trace: func(tc *traceCtx) error { return traceGrid(tc, gridCluster) },
	},
	{
		name:      "lamport-induct",
		why:       "millions of candidate states streamed with one resident, no seen set and no frontier: domain enumeration and conjunct evaluation dominate",
		build:     buildLamport,
		preflight: preflightLamport,
		trace:     traceLamport,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// ---------------------------------------------------------------
// arbiter3-check

// Pinned instance sizes (users on graph.BinaryTree) and their state
// counts, confirmed against explore.ReferenceReach by -confirm.
const (
	checkUsers, checkUsersQuick   = 7, 5
	checkStates, checkStatesQuick = 134819, 4837

	certifyUsers, certifyUsersQuick = 6, 4
	// Reachable states of the open A₃′; A₂ over 𝒢 has as many.
	certifyStates, certifyStatesQuick = 32176, 1062
)

// closedArbiter3 builds the level-3 distributed arbiter over tr,
// renamed to specification actions and closed with heavy-load users.
// It is bench.SystemOn(3, tr) written out, so that a refactor of the
// legacy harness cannot move the benchmark's instance.
func closedArbiter3(tr *graph.Tree, holder int) (ioa.Automaton, error) {
	var names []string
	for _, u := range tr.NodesOf(graph.User) {
		names = append(names, tr.Node(u).Name)
	}
	aug, err := graph.Augment(tr)
	if err != nil {
		return nil, err
	}
	sys, err := dist.NewWithFaults(tr, holder, faults.Injection{})
	if err != nil {
		return nil, err
	}
	f2, err := sys.F2(aug)
	if err != nil {
		return nil, err
	}
	a3x, err := ioa.Rename(sys.A3, f2)
	if err != nil {
		return nil, err
	}
	arb, err := ioa.Rename(a3x, graphlevel.F1(aug))
	if err != nil {
		return nil, err
	}
	comps := append([]ioa.Automaton{arb}, users.Automata(users.HeavyLoad(names))...)
	return ioa.Compose("arbiter3", comps...)
}

// arbiterOn builds the closed level-3 arbiter on graph.BinaryTree(n)
// with the resource at the holder-th arbiter node.
func arbiterOn(n, holder int) (ioa.Automaton, error) {
	tr, err := graph.BinaryTree(n)
	if err != nil {
		return nil, err
	}
	arbiters := tr.NodesOf(graph.Arbiter)
	return closedArbiter3(tr, arbiters[holder%len(arbiters)])
}

// holders counts user components holding the resource in a closed
// arbiter state (component 0 is the arbiter).
func holders(s ioa.State) int {
	ts, ok := s.(*ioa.TupleState)
	if !ok {
		return 0
	}
	n := 0
	for i := 1; i < ts.Len(); i++ {
		if u, ok := ts.At(i).(*users.State); ok && u.Phase() == users.Holding {
			n++
		}
	}
	return n
}

func mutualExclusion(s ioa.State) bool { return holders(s) <= 1 }

func pick(quick bool, full, small int) int {
	if quick {
		return small
	}
	return full
}

func buildArbiterCheck(quick bool, _ string) (*instance, error) {
	sys, err := arbiterOn(pick(quick, checkUsers, checkUsersQuick), 0)
	if err != nil {
		return nil, err
	}
	want := int64(pick(quick, checkStates, checkStatesQuick))
	return &instance{
		close: func() {},
		verdict: func(o *obs.Obs, workers int) (outcome, error) {
			if o != nil {
				ioa.SetObsDeep(sys, o)
			}
			var n int64
			v, err := explore.New(explore.Options{Workers: workers, Obs: o}).CheckInvariant(ctx, sys,
				func(s ioa.State) bool { n++; return mutualExclusion(s) })
			out := outcome{states: n, exact: map[string]int64{"states": n}}
			if err != nil {
				return out, err
			}
			if v != nil {
				return out, fmt.Errorf("mutual exclusion violated at %q", v.State.Key())
			}
			if n != want {
				return out, fmt.Errorf("checked %d states, pinned count is %d", n, want)
			}
			return out, nil
		},
	}, nil
}

// sameStates compares two state lists elementwise by key.
func sameStates(got, want []ioa.State) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d states, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			return fmt.Errorf("state %d is %q, oracle has %q", i, got[i].Key(), want[i].Key())
		}
	}
	return nil
}

// sameSet compares two state lists as sets of keys.
func sameSet(got, want []ioa.State) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d states, oracle has %d", len(got), len(want))
	}
	seen := make(map[string]bool, len(want))
	for _, s := range want {
		seen[s.Key()] = true
	}
	for _, s := range got {
		if !seen[s.Key()] {
			return fmt.Errorf("state %q is not in the oracle's set", s.Key())
		}
	}
	return nil
}

// reachVsReference checks the engine against explore.ReferenceReach on
// a: elementwise at one worker (same visit order), as a set at two.
func reachVsReference(a func() (ioa.Automaton, error)) error {
	ref, err := a()
	if err != nil {
		return err
	}
	want, err := explore.ReferenceReach(ref, explore.DefaultLimit)
	if err != nil {
		return err
	}
	for _, workers := range []int{1, 2} {
		sys, err := a()
		if err != nil {
			return err
		}
		got, err := explore.New(explore.Options{Workers: workers}).Reach(ctx, sys)
		if err != nil {
			return err
		}
		cmp := sameStates
		if workers > 1 {
			cmp = sameSet
		}
		if err := cmp(got, want); err != nil {
			return fmt.Errorf("workers=%d: %w", workers, err)
		}
	}
	return nil
}

func preflightArbiterCheck(seed int64, _ bool, _ string) []arm {
	rng := testseed.Source(seed)
	n, holder := 3+rng.Intn(2), rng.Intn(3)
	small := func() (ioa.Automaton, error) { return arbiterOn(n, holder) }
	return []arm{
		{fmt.Sprintf("oracle: Reach = ReferenceReach elementwise (arbiter3 n=%d holder=%d)", n, holder), func() error {
			return reachVsReference(small)
		}},
		{"must-fail: 'no user ever holds' is rejected with a valid witness", func() error {
			sys, err := small()
			if err != nil {
				return err
			}
			v, err := explore.New(explore.Options{Workers: 1}).CheckInvariant(ctx, sys,
				func(s ioa.State) bool { return holders(s) == 0 })
			if err != nil {
				return err
			}
			if v == nil {
				return errors.New("false invariant accepted")
			}
			if holders(v.State) == 0 || v.Trace.Last().Key() != v.State.Key() {
				return errors.New("violation does not violate")
			}
			return v.Trace.Validate(true)
		}},
	}
}

func confirmArbiterCheck() []arm {
	return []arm{{fmt.Sprintf("pin: ReferenceReach(arbiter3 n=%d) = %d", checkUsers, checkStates), func() error {
		sys, err := arbiterOn(checkUsers, 0)
		if err != nil {
			return err
		}
		return referenceCount(sys, checkStates)
	}}}
}

func referenceCount(a ioa.Automaton, want int) error {
	ref, err := explore.ReferenceReach(a, 1<<24)
	if err != nil {
		return err
	}
	if len(ref) != want {
		return fmt.Errorf("ReferenceReach found %d states, pinned count is %d", len(ref), want)
	}
	return nil
}

// ---------------------------------------------------------------
// arbiter-certify

// hierarchy is the open three-level chain A₃′ → A₂ → A₁ over one tree.
type hierarchy struct {
	a3r, a2, a2r, a1 ioa.Automaton
	h2, h1           *proof.PossMapping
}

func buildHierarchy(n, holder int) (*hierarchy, error) {
	tr, err := graph.BinaryTree(n)
	if err != nil {
		return nil, err
	}
	aug, err := graph.Augment(tr)
	if err != nil {
		return nil, err
	}
	arbiters := tr.NodesOf(graph.Arbiter)
	sys, err := dist.New(tr, arbiters[holder%len(arbiters)])
	if err != nil {
		return nil, err
	}
	h2m := mapping.NewH2Map(sys, aug)
	from, at, err := h2m.StartEdge()
	if err != nil {
		return nil, err
	}
	a2, err := graphlevel.New(aug, from, at)
	if err != nil {
		return nil, err
	}
	f2, err := sys.F2(aug)
	if err != nil {
		return nil, err
	}
	a3r, err := ioa.Rename(sys.A3, f2)
	if err != nil {
		return nil, err
	}
	a2r, err := ioa.Rename(a2, graphlevel.F1(aug))
	if err != nil {
		return nil, err
	}
	var names spec.Users
	for _, u := range tr.NodesOf(graph.User) {
		names = append(names, tr.Node(u).Name)
	}
	a1 := spec.New(names)
	return &hierarchy{
		a3r: a3r, a2: a2, a2r: a2r, a1: a1,
		h2: h2m.H2(a3r, a2),
		h1: mapping.H1(aug, a2r, a1),
	}, nil
}

func buildCertify(quick bool, _ string) (*instance, error) {
	h, err := buildHierarchy(pick(quick, certifyUsers, certifyUsersQuick), 0)
	if err != nil {
		return nil, err
	}
	// VerifyOpts returns no counts; the preflight checks the pinned
	// ones against the engine, and -confirm against ReferenceReach.
	states := 2 * int64(pick(quick, certifyStates, certifyStatesQuick))
	return &instance{
		close: func() {},
		verdict: func(o *obs.Obs, workers int) (outcome, error) {
			out := outcome{states: states, exact: map[string]int64{"states": states}}
			opts := explore.Options{Workers: workers, Obs: o}
			if err := h.h2.VerifyOpts(opts); err != nil {
				return out, fmt.Errorf("h2: %w", err)
			}
			if err := h.h1.VerifyOpts(opts); err != nil {
				return out, fmt.Errorf("h1: %w", err)
			}
			return out, nil
		},
	}, nil
}

func preflightCertify(seed int64, quick bool, _ string) []arm {
	rng := testseed.Source(seed)
	holder := rng.Intn(2)
	n, want := pick(quick, certifyUsers, certifyUsersQuick), pick(quick, certifyStates, certifyStatesQuick)
	return []arm{
		{fmt.Sprintf("oracle: Reach = ReferenceReach elementwise (open A3' and A2, n=3 holder=%d)", holder), func() error {
			if err := reachVsReference(func() (ioa.Automaton, error) {
				h, err := buildHierarchy(3, holder)
				if err != nil {
					return nil, err
				}
				return h.a3r, nil
			}); err != nil {
				return fmt.Errorf("A3': %w", err)
			}
			return reachVsReference(func() (ioa.Automaton, error) {
				h, err := buildHierarchy(3, holder)
				if err != nil {
					return nil, err
				}
				return h.a2, nil
			})
		}},
		{fmt.Sprintf("pin: A3' and A2 at n=%d each reach %d states", n, want), func() error {
			h, err := buildHierarchy(n, 0)
			if err != nil {
				return err
			}
			for _, a := range []ioa.Automaton{h.a3r, h.a2} {
				got, err := explore.New(explore.Options{Workers: 2}).Reach(ctx, a)
				if err != nil {
					return err
				}
				if len(got) != want {
					return fmt.Errorf("%s reaches %d states, pinned count is %d", a.Name(), len(got), want)
				}
			}
			return nil
		}},
		{"must-fail: a constant map is rejected with ErrNotPossibilities", func() error {
			h, err := buildHierarchy(3, holder)
			if err != nil {
				return err
			}
			wrong := &proof.PossMapping{A: h.a2r, B: h.a1, Map: func(ioa.State) []ioa.State { return h.a1.Start() }}
			err = wrong.VerifyOpts(explore.Options{Workers: 2})
			if err == nil {
				return errors.New("wrong mapping accepted")
			}
			if !errors.Is(err, proof.ErrNotPossibilities) {
				return fmt.Errorf("rejected with the wrong error: %w", err)
			}
			return nil
		}},
	}
}

func confirmCertify() []arm {
	return []arm{{fmt.Sprintf("pin: ReferenceReach(A3'), ReferenceReach(A2) at n=%d = %d", certifyUsers, certifyStates), func() error {
		h, err := buildHierarchy(certifyUsers, 0)
		if err != nil {
			return err
		}
		if err := referenceCount(h.a3r, certifyStates); err != nil {
			return err
		}
		return referenceCount(h.a2, certifyStates)
	}}}
}

// ---------------------------------------------------------------
// grid-census, grid-spill, grid-cluster

type gridKind int

const (
	gridRAM gridKind = iota
	gridSpill
	gridCluster
)

// The grid instance: 9^6 = 531 441 states. spillBudget makes the seen
// set about 26 times its hot batch (about 120 runs on disk).
const (
	gridBase, gridDigits           = 9, 6
	gridBaseQuick, gridDigitsQuick = 10, 3
	spillBudget                    = 128 << 10
	spillBudgetQuick               = 4 << 10
)

func gridFor(quick bool) (*grid.Grid, error) {
	return grid.New(pick(quick, gridBase, gridBaseQuick), pick(quick, gridDigits, gridDigitsQuick))
}

func spillOptions(quick bool, dir string) *store.SpillOptions {
	return &store.SpillOptions{Dir: dir, MemBudget: int64(pick(quick, spillBudget, spillBudgetQuick))}
}

// gridCensus runs the census of g on one of the three backends.
// pred is the invariant (nil for none).
func gridCensus(g *grid.Grid, kind gridKind, workers int, spill *store.SpillOptions, o *obs.Obs, pred func(ioa.State) bool, visit func(ioa.State)) (explore.Summary, error) {
	opts := explore.Options{Workers: workers, Limit: int(g.States()), Obs: o}
	if kind == gridSpill {
		opts.Spill, opts.Decode = spill, g.Decode
	}
	return explore.New(opts).Census(ctx, g, pred, visit)
}

// runCluster runs a coordinator and procs workers as goroutines over a
// pre-bound localhost listener, which Coordinate takes ownership of.
func runCluster(ln net.Listener, cfg cluster.Config) (cluster.Result, error) {
	cfg.Listener, cfg.Addr = ln, ln.Addr().String()
	runCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	errs := make([]error, cfg.Procs)
	var wg sync.WaitGroup
	for rank := range errs {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = cluster.Work(runCtx, cfg)
		}(rank)
	}
	res, err := cluster.Coordinate(runCtx, cfg)
	if err != nil {
		cancel()
	}
	wg.Wait()
	if err != nil {
		return res, err
	}
	for rank, werr := range errs {
		if werr != nil {
			return res, fmt.Errorf("rank %d: %w", rank, werr)
		}
	}
	return res, nil
}

// clusterConfig is the timed cluster census of g on procs ranks.
func clusterConfig(g *grid.Grid, o *obs.Obs, procs int) cluster.Config {
	return cluster.Config{
		Procs: procs, Limit: g.States(), Obs: o,
		Build: func() (ioa.Automaton, error) { return g, nil },
	}
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func buildGrid(quick bool, kind gridKind, tmp string) (*instance, error) {
	g, err := gridFor(quick)
	if err != nil {
		return nil, err
	}
	in := &instance{close: func() {}}
	var ln net.Listener
	if kind == gridCluster {
		if ln, err = listen(); err != nil {
			return nil, err
		}
		// Coordinate closes the listener; this covers the paths on
		// which the verdict never runs.
		in.close = func() { ln.Close() }
	}
	spill := spillOptions(quick, filepath.Join(tmp, "runs"))
	in.verdict = func(o *obs.Obs, workers int) (outcome, error) {
		var out outcome
		if kind == gridCluster {
			res, err := runCluster(ln, clusterConfig(g, o, workers))
			out = outcome{states: res.States, exact: map[string]int64{"states": res.States, "depth": res.Depth}}
			if err != nil {
				return out, err
			}
			var sum int64
			for _, n := range res.PerRank {
				sum += n
			}
			if res.Violation != "" || sum != g.States() {
				return out, fmt.Errorf("cluster: violation %q, shards sum to %d, closed form %d", res.Violation, sum, g.States())
			}
			return out, gridClosedForm(g, res.States, res.Depth, 1)
		}
		sum, err := gridCensus(g, kind, workers, spill, o, nil, nil)
		out = outcome{states: sum.States, exact: map[string]int64{"states": sum.States, "depth": sum.Depth, "deadlocks": sum.Deadlocks}}
		if err != nil {
			return out, err
		}
		return out, gridClosedForm(g, sum.States, sum.Depth, sum.Deadlocks)
	}
	return in, nil
}

func gridClosedForm(g *grid.Grid, states, depth, deadlocks int64) error {
	if states != g.States() || depth != g.Depth() || deadlocks != 1 {
		return fmt.Errorf("%s: %d states, depth %d, %d deadlocks; closed form is %d, %d, 1",
			g.Name(), states, depth, deadlocks, g.States(), g.Depth())
	}
	return nil
}

// digitSum is a grid state's BFS depth.
func digitSum(key string) int {
	n := 0
	for i := 0; i < len(key); i++ {
		n += int(key[i])
	}
	return n
}

func preflightGrid(seed int64, kind gridKind, tmp string) []arm {
	rng := testseed.Source(seed)
	shapes := [][2]int{{3, 3}, {2, 4}, {4, 2}, {5, 2}}
	shape := shapes[rng.Intn(len(shapes))]
	small, err := grid.New(shape[0], shape[1])
	mid, err2 := grid.New(gridBaseQuick, gridDigitsQuick)
	if err == nil {
		err = err2
	}
	if err != nil {
		return []arm{{"build preflight grids", func() error { return err }}}
	}
	// The false invariant "digit sum < d" first fails at BFS depth d.
	d := 1 + rng.Intn(int(mid.Depth()))
	shallow := func(s ioa.State) bool { return digitSum(s.Key()) < d }

	var arms []arm
	switch kind {
	case gridRAM:
		arms = []arm{
			{fmt.Sprintf("oracle: Reach = ReferenceReach elementwise (%s)", small.Name()), func() error {
				return reachVsReference(func() (ioa.Automaton, error) { return small, nil })
			}},
			{fmt.Sprintf("must-fail: 'digit sum < %d' is rejected at depth %d with a valid witness", d, d), func() error {
				sum, err := gridCensus(mid, kind, 2, nil, nil, shallow, nil)
				if err != nil {
					return err
				}
				v := sum.Violation
				if v == nil {
					return errors.New("false invariant accepted")
				}
				if digitSum(v.State.Key()) != d || v.Trace.Len() != d {
					return fmt.Errorf("violation at depth %d with a %d-step witness, shallowest is %d", digitSum(v.State.Key()), v.Trace.Len(), d)
				}
				return v.Trace.Validate(true)
			}},
		}
	case gridSpill:
		arms = []arm{
			{fmt.Sprintf("oracle: external census = ReferenceReach as a set (%s)", small.Name()), func() error {
				want, err := explore.ReferenceReach(small, explore.DefaultLimit)
				if err != nil {
					return err
				}
				var got []ioa.State
				sum, err := gridCensus(small, kind, 1, &store.SpillOptions{Dir: filepath.Join(tmp, "oracle"), MemBudget: 128}, nil, nil,
					func(s ioa.State) { got = append(got, s) })
				if err != nil {
					return err
				}
				if err := gridClosedForm(small, sum.States, sum.Depth, sum.Deadlocks); err != nil {
					return err
				}
				return sameSet(got, want)
			}},
			{fmt.Sprintf("must-fail: 'digit sum < %d' is rejected at depth %d by the external census", d, d), func() error {
				sum, err := gridCensus(mid, kind, 1, spillOptions(true, filepath.Join(tmp, "mustfail")), nil, shallow, nil)
				if err != nil {
					return err
				}
				if sum.Violation == nil {
					return errors.New("false invariant accepted")
				}
				if got := digitSum(sum.Violation.State.Key()); got != d {
					return fmt.Errorf("violation at depth %d, shallowest is %d", got, d)
				}
				return nil
			}},
		}
	case gridCluster:
		clusterOn := func(g *grid.Grid, cfg cluster.Config) (cluster.Result, error) {
			ln, err := listen()
			if err != nil {
				return cluster.Result{}, err
			}
			cfg.Procs = 2
			cfg.Build = func() (ioa.Automaton, error) { return g, nil }
			return runCluster(ln, cfg)
		}
		arms = []arm{
			{fmt.Sprintf("oracle: cluster census = ReferenceReach count (%s)", small.Name()), func() error {
				want, err := explore.ReferenceReach(small, explore.DefaultLimit)
				if err != nil {
					return err
				}
				res, err := clusterOn(small, cluster.Config{})
				if err != nil {
					return err
				}
				if res.States != int64(len(want)) {
					return fmt.Errorf("cluster reached %d states, oracle has %d", res.States, len(want))
				}
				return gridClosedForm(small, res.States, res.Depth, 1)
			}},
			{fmt.Sprintf("must-fail: 'digit sum < %d' is rejected at depth %d through Config.Pred", d, d), func() error {
				res, err := clusterOn(mid, cluster.Config{Pred: shallow})
				if err != nil {
					return err
				}
				if res.Violation == "" {
					return errors.New("false invariant accepted")
				}
				if got := digitSum(res.Violation); got != d {
					return fmt.Errorf("violation at depth %d, shallowest is %d", got, d)
				}
				return nil
			}},
			{"must-fail: a corrupt shard assignment aborts the cluster", func() error {
				if _, err := clusterOn(mid, cluster.Config{CorruptShard: true}); err == nil {
					return errors.New("corrupt shard assignment accepted")
				}
				return nil
			}},
		}
	}
	return arms
}

func confirmGrid() []arm {
	return []arm{{fmt.Sprintf("closed form: ReferenceReach(grid %d^%d)", gridBase, gridDigits), func() error {
		g, err := gridFor(false)
		if err != nil {
			return err
		}
		return referenceCount(g, int(g.States()))
	}}}
}

// ---------------------------------------------------------------
// lamport-induct

// lamportFor builds the bounded Lamport mutex: N=2, clock bound 3,
// channel capacity 1 — 5 308 416 TypeOK-shaped domain states.
func lamportFor(quick bool) (*mutex.Lamport, error) {
	return mutex.NewLamport(2, pick(quick, 3, 2), 1)
}

func buildLamport(quick bool, _ string) (*instance, error) {
	l, err := lamportFor(quick)
	if err != nil {
		return nil, err
	}
	dom, inv := l.Domain(), l.Inv()
	want := domain.Size(dom)
	return &instance{
		close: func() {},
		verdict: func(o *obs.Obs, _ int) (outcome, error) {
			cert, err := induct.Check(ctx, l.Auto, dom, inv, induct.Options{Obs: o})
			out := outcome{states: cert.DomainStates, exact: map[string]int64{
				"states": cert.DomainStates, "candidates": cert.Candidates, "transitions": cert.Transitions,
			}}
			if err != nil {
				return out, err
			}
			if !cert.Inductive || !cert.AdequacyChecked {
				return out, fmt.Errorf("not certified: %s", cert)
			}
			if cert.DomainStates != want {
				return out, fmt.Errorf("walked %d domain states, closed form is %d", cert.DomainStates, want)
			}
			return out, nil
		},
	}, nil
}

func preflightLamport(seed int64, _ bool, _ string) []arm {
	rng := testseed.Source(seed)
	l, err := lamportFor(true)
	if err != nil {
		return []arm{{"build preflight Lamport", func() error { return err }}}
	}
	lemmas := l.Lemmas()
	// Each of these lemmas is needed: without it the conjunction has a
	// counterexample to induction (AckOwn and ReqAfterAck are implied
	// by the rest at this size).
	droppable := []string{"CritOK", "ClockOK", "ChanOK", "StageOK", "PostAckReq", "CritBeats"}
	drop := droppable[rng.Intn(len(droppable))]
	return []arm{
		{"oracle: every reachable state satisfies the invariant and lies in the domain", func() error {
			reach, err := explore.ReferenceReach(l.Auto, explore.DefaultLimit)
			if err != nil {
				return err
			}
			inv, dom := l.Inv(), l.Domain().(domain.Container)
			for _, s := range reach {
				if lem, bad := inv.FirstViolated(s); bad {
					return fmt.Errorf("reachable state %q violates %s", s.Key(), lem.Name)
				}
				if !dom.Contains(s) {
					return fmt.Errorf("reachable state %q is outside the domain", s.Key())
				}
			}
			return nil
		}},
		{fmt.Sprintf("must-fail: the conjunction without %s has a counterexample to induction", drop), func() error {
			weak := lattice.Conj("Inv", l.TypeOK(), l.MutexLemma())
			for _, lem := range lemmas {
				if lem.Name != drop {
					weak = weak.With(lem)
				}
			}
			cert, err := induct.Check(ctx, l.Auto, l.Domain(), weak, induct.Options{})
			if err != nil {
				return err
			}
			if cert.Inductive || cert.CTI == nil {
				return errors.New("weakened conjunction certified")
			}
			return nil
		}},
	}
}
