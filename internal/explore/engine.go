package explore

// The Engine facade: the package's entry points (Reach,
// CheckInvariant, Behaviors, Schedules, Execs, SameBehaviors,
// FindLasso, plus the diagnostic WriteDOT) are methods of one type constructed from Options, with
// context.Context cancellation on every method.
//
// Internally every explorer dedups through internal/store: states are
// byte-encoded once (ioa.AppendState — the bytes of Key(), streamed
// without building the string), interned into arena-backed shards, and
// tracked by dense uint64 IDs instead of string-keyed maps; successor
// enumeration goes through an ioa.Walk, which borrows each successor
// from its own scratch memory, so a successor that is found already
// interned allocates nothing and only a kept one is copied to the heap.
// The visit order is bit-identical to the string-keyed seed explorer
// (reference.go keeps it as the differential oracle): interning
// preserves first-insertion order, and the encoding is the Key().

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/store"
)

// DefaultLimit is the state budget used when Options.Limit is zero.
const DefaultLimit = 1 << 20

// Options parameterizes an exploration Engine.
type Options struct {
	// Workers is the number of exploration goroutines. 0 means
	// GOMAXPROCS; 1 runs the sequential engine.
	Workers int
	// Limit is the maximum number of states to admit (0 =
	// DefaultLimit). The ErrLimit contract is shared by both engines:
	// the partial result holds exactly Limit states and ErrLimit is
	// returned iff an unseen state remains.
	Limit int
	// Obs, when non-nil, enables observability: per-level spans and
	// frontier/latency histograms, per-worker expansion spans, the
	// successor counter, and the state-store occupancy and arena-bytes
	// gauges. Level timing reads the Obs clock (obs.New injects it).
	// Nil (the default) is the disabled fast path — the engine performs
	// no clock reads and no metric writes. Observability never affects
	// the explored state set.
	Obs *obs.Obs
	// Canon, when non-nil, quotients the explored state space by a
	// symmetry: the state store dedups canonical encodings, so one
	// concrete representative per orbit is admitted — the first
	// discovered sequentially, the least-keyed candidate of the
	// earliest level in parallel. Results stay concrete states and
	// witness traces stay genuine executions; invariant predicates
	// must be orbit-invariant (the symmetry must be an automorphism of
	// the automaton — see the reduce package, whose differential
	// battery enforces both obligations).
	Canon store.Canonicalizer
	// Spill, when non-nil, backs every seen set with the disk-spilling
	// store implementation (store.NewSpill) instead of the in-RAM
	// arena: interned encodings flush to delta-encoded sorted runs once
	// the hot batch exceeds its byte budget, and membership probes
	// merge-on-lookup across the runs. Exploration results are
	// bit-identical to the arena backend — the differential battery
	// pins it — at bounded RAM. Canon is threaded through
	// automatically; a set Spill.Canon is ignored.
	Spill *store.SpillOptions
	// Decode rebuilds a state from its canonical encoding. It is only
	// required by Census's external mode, which keeps frontiers on disk
	// as encodings and must re-expand them; systems whose encodings are
	// self-describing (KeyState systems, internal/grid) provide it
	// trivially. Reach and CheckInvariant never call it.
	Decode func(enc []byte) (ioa.State, error)
}

// WorkerCount resolves Workers: the number of goroutines an engine — or
// a pass sharded the way the engine's levels are, like the proof
// package's condition pass — runs under these options.
func (o Options) WorkerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	if o.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// limit resolves the state budget.
func (o Options) limit() int {
	if o.Limit > 0 {
		return o.Limit
	}
	return DefaultLimit
}

// An Engine runs finite-state analyses of I/O automata under one
// Options bundle. Engines are stateless between calls (each method
// builds a fresh state store), so one Engine may be shared and its
// methods called concurrently.
type Engine struct {
	opts Options
}

// New builds an Engine from opts.
func New(opts Options) *Engine { return &Engine{opts: opts} }

// seenErr wraps a latched storage error for return from an engine
// method.
func seenErr(a ioa.Automaton, err error) error {
	return fmt.Errorf("explore: %s: storage: %w", a.Name(), err)
}

// reporter is the one progress and gauge emitter under every loop: the
// sequential kernel, the level-synchronized engine and the external
// census all publish through it, so they cannot disagree about what a
// running or a finished exploration reports. Each loop defers one
// emit(…, done=true), so completion, violation, ErrLimit and
// cancellation all leave through the same report. With a nil Obs emit
// is a no-op.
type reporter struct {
	o       *obs.Obs
	st      store.SeenSet
	phase   string
	counted int64 // states already added to explore.states_admitted
}

// emit brings explore.states_admitted up to states, publishes the store
// gauges, and sends one progress snapshot. Raw counts only — the ledger
// derives rates.
func (r *reporter) emit(depth, states, frontier int64, done bool) {
	if r.o == nil {
		return
	}
	r.o.Explore.States.Add(states - r.counted)
	r.counted = states
	s := r.st.Stats()
	r.o.Store.Occupancy.Set(int64(s.States))
	r.o.Store.ArenaBytes.Set(s.ArenaBytes)
	r.o.Store.ArenaCapBytes.Set(s.ArenaCapBytes)
	r.o.Store.SpilledBytes.Set(s.SpilledBytes)
	r.o.Store.SpillRuns.Set(int64(s.SpillRuns))
	r.o.Store.SpillResidentBytes.Set(s.ResidentBytes)
	r.o.Store.SpillCompactions.Set(s.Compactions)
	r.o.Store.SpillEntriesDecoded.Set(s.EntriesDecoded)
	r.o.Store.SpillBlocksRead.Set(s.BlocksRead)
	r.o.Store.SpillBloomFalsePositives.Set(s.BloomFalsePositives)
	r.o.Store.SpillMerges.Set(s.Merges)
	r.o.Store.SpillMergeCandidates.Set(s.MergeCandidates)
	r.o.EmitProgress(obs.Progress{
		Phase:        r.phase,
		Depth:        depth,
		States:       states,
		Frontier:     frontier,
		Occupancy:    int64(s.States),
		ArenaBytes:   s.ArenaBytes,
		SpilledBytes: s.SpilledBytes,
		Done:         done,
	})
}

// seqProgressStride is how many expanded states separate progress
// snapshots in the sequential kernel (power of two; the check rides
// the existing i&63 cancellation branch, so the hot path gains no new
// comparison when observability is off).
const seqProgressStride = 8192

// ctxOr normalizes a nil context.
func ctxOr(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// Reach computes the reachable states of a, visiting at most
// Options.Limit states, sequentially at one worker and via the sharded
// parallel engine otherwise. The result is deterministic for a given
// worker mode: the sequential order is BFS discovery order (bit-
// identical to ReferenceReach); the parallel order is BFS-depth order,
// key-sorted within each depth, independent of the worker count. It
// returns ErrLimit (with a partial result of exactly Limit states) iff
// an unseen state remains, and ctx.Err() (with the partial result so
// far) on cancellation.
func (e *Engine) Reach(ctx context.Context, a ioa.Automaton) ([]ioa.State, error) {
	ctx = ctxOr(ctx)
	if e.opts.WorkerCount() <= 1 {
		order, _, err := e.seqExplore(ctx, a, nil)
		return order, err
	}
	order, _, _, _, err := e.parallelExplore(ctx, a, nil)
	return order, err
}

// CheckInvariant explores reachable states (up to Options.Limit) and
// checks pred at each, returning the first violation found with a
// witness execution, or nil if the invariant holds on every explored
// state. At one worker the search and the witness are bit-identical to
// the seed CheckInvariant; in parallel the verdict agrees whenever the
// reachable state count is below the limit and any reported violation
// is a true, reachable violation with a minimal-length canonical
// witness. pred is only called from the coordinating goroutine.
func (e *Engine) CheckInvariant(ctx context.Context, a ioa.Automaton, pred func(ioa.State) bool) (*Violation, error) {
	ctx = ctxOr(ctx)
	if pred == nil {
		return nil, fmt.Errorf("explore: CheckInvariant: nil predicate")
	}
	if e.opts.WorkerCount() <= 1 {
		_, v, err := e.seqExplore(ctx, a, pred)
		return v, err
	}
	_, v, _, _, err := e.parallelExplore(ctx, a, pred)
	return v, err
}

// seqExplore is the one sequential kernel, under Reach (pred nil) and
// CheckInvariant at one worker. The frontier is the unexpanded suffix
// of the result slice itself (every admitted state is expanded exactly
// once, in admission order), so visit order is bit-identical to the
// seed explorer's explicit queue, and slice indices double as interned
// IDs (both are dense admission order). With a predicate it also
// records one (parent, act) crumb per state, checks pred on each state
// as it comes up for expansion, and builds the witness from the crumb
// chain.
//
// The two limit contracts differ on purpose. Reach switches to probe
// mode once the budget is full: the first unseen successor aborts the
// enumeration with ErrLimit and exactly Limit states, and an exact-fit
// exploration (budget full, no unseen successor anywhere) still
// completes with a nil error. CheckInvariant is stricter (matching the
// seed): a full store is an error before the next expansion even when
// the frontier is about to empty, because witnesses for states past
// the budget could not be built.
func (e *Engine) seqExplore(ctx context.Context, a ioa.Automaton, pred func(ioa.State) bool) (order []ioa.State, v *Violation, err error) {
	limit := e.opts.limit()
	o := e.opts.Obs
	if o != nil {
		defer o.Tracer.Span(0, "explore", "seq "+a.Name())()
	}
	st, err := store.Open(e.opts.Spill, e.opts.Canon)
	if err != nil {
		return nil, nil, err
	}
	//lint:ignore errflow storage failures surface through the sticky Err checks; Close here only releases temp files
	defer st.Close()
	rep := reporter{o: o, st: st, phase: "explore"}
	defer func() { rep.emit(0, int64(len(order)), 0, true) }()

	var crumbs []crumb // indexed like order; kept only under a predicate
	cur := store.None  // the state being expanded
	step := ioa.NewWalk(a, true)
	admit := func(s ioa.State) {
		if _, fresh := st.Intern(s); fresh {
			order = append(order, ioa.Keep(s))
			if pred != nil {
				crumbs = append(crumbs, crumb{parent: cur, act: step.Act})
			}
		}
	}
	for _, s := range a.Start() {
		admit(s)
	}
	// One yield closure for the whole sweep.
	yield := func(nxt ioa.State) bool {
		if pred == nil && len(order) >= limit {
			_, seen := st.Has(nxt)
			return seen
		}
		admit(nxt)
		return true
	}
	limited := false
	for i := 0; i < len(order) && !limited; i++ {
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return order, nil, err
			}
			if err := st.Err(); err != nil {
				return order, nil, seenErr(a, err)
			}
			if i&(seqProgressStride-1) == 0 && i > 0 {
				rep.emit(0, int64(len(order)), int64(len(order)-i), false)
			}
		}
		s := order[i]
		if pred != nil {
			if !pred(s) {
				return order, &Violation{State: s, Trace: witnessFromCrumbs(a, order, crumbs, store.ID(i))}, nil
			}
			if len(order) >= limit {
				return order, nil, errLimit(a, limit)
			}
		}
		cur = store.ID(i)
		// Only Reach's probe mode ever stops the walk.
		limited = !step.Visit(s, yield)
	}
	if err := st.Err(); err != nil {
		return order, nil, seenErr(a, err)
	}
	if limited {
		return order, nil, errLimit(a, limit)
	}
	return order, nil, nil
}
