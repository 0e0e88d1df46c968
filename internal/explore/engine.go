package explore

// The Engine facade: the package's entry points (Reach,
// CheckInvariant, Visit, Graph, Census, Behaviors, Schedules, Execs,
// SameBehaviors, FindLasso, plus the diagnostic WriteDOT) are methods
// of one type constructed from Options, with context.Context
// cancellation on every method.
//
// Internally every explorer dedups through internal/store: states are
// byte-encoded once, interned into arena-backed shards, and tracked by
// dense uint64 IDs instead of string-keyed maps; successor enumeration
// goes through an ioa.Walk, which borrows each successor from its own
// scratch memory, so a successor that is found already interned
// allocates nothing and only a kept one is copied to the heap. Reach,
// CheckInvariant, Visit, Graph and the in-RAM Census all run one
// sequential kernel, seqExplore, whatever Options.Workers says; the
// external census and the cluster have level loops of their own, encode
// with ioa.AppendState — the bytes of Key(), streamed without building
// the string — and order chunks by them. The kernel interns
// ioa.Encoder's encoding, which for a composition is its leaves' cell
// indices: equal iff the Keys are, a few bytes long, and built without
// reading a leaf's key. Those bytes (an ioa.Decodable's Key bytes) are
// the state (ioa.Decoder), so where nothing needs a heap state the
// kernel keeps none: its frontier is the store's unexpanded IDs, each
// decoded when it comes up. The visit order is bit-identical to the
// string-keyed seed explorer (reference.go keeps it as the differential
// oracle): interning preserves first-insertion order, and both encodings
// decide equality as the Key() does.

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/ioa"
	"repro/internal/ltl"
	"repro/internal/obs"
	"repro/internal/store"
)

// DefaultLimit is the state budget used when Options.Limit is zero.
const DefaultLimit = 1 << 20

// A Canonicalizer maps each state to the canonical representative of
// its symmetry orbit. An explorer under one encodes Canonical(s) where
// it would encode s, so two states related by a symmetry of the
// automaton encode to the same bytes and share one dense ID: the
// explored space is quotiented.
//
// Contract: Canonical must be a pure function, idempotent
// (Canonical(Canonical(s)) == Canonical(s)), orbit-invariant
// (s ~ t implies Canonical(s).Key() == Canonical(t).Key()), and exact
// (Canonical(s).Key() == Canonical(t).Key() only when s ~ t). The
// symmetry itself must be an automorphism of the transition relation;
// the reduce package provides checked implementations and the
// differential battery there enforces the contract against the
// unreduced oracle. Canonical must be safe for concurrent use: one
// Engine's methods may run concurrently.
type Canonicalizer interface {
	// Name identifies the symmetry (for certificates and bench rows).
	Name() string
	// Canonical returns the orbit representative of s. It must not
	// retain or mutate s.
	Canonical(s ioa.State) ioa.State
}

// Options parameterizes an exploration Engine.
type Options struct {
	// Workers is the number of goroutines a check may use. 0 means
	// GOMAXPROCS. Every Engine method runs on the calling goroutine
	// whatever it says; at two or more a possibilities-mapping check
	// (package proof) walks A on a goroutine of its own beside its
	// condition pass.
	Workers int
	// Limit is the maximum number of states to admit (0 =
	// DefaultLimit). Reach's partial result holds exactly Limit states
	// and ErrLimit is returned iff an unseen state remains;
	// CheckInvariant's stricter contract is seqExplore's.
	Limit int
	// Obs, when non-nil, enables observability: the level counter,
	// frontier histogram and successor counter, a progress snapshot
	// and memo counter series per level, the exploration's trace span,
	// and the state-store occupancy and arena-bytes gauges.
	// Nil (the default) is the disabled fast path — the engine performs
	// no clock reads and no metric writes. Observability never affects
	// the explored state set.
	Obs *obs.Obs
	// Canon, when non-nil, quotients the explored state space by a
	// symmetry: every explorer interns the encoding of a state's
	// orbit representative, Canon.Canonical(s), so one
	// concrete representative per orbit is admitted — the first
	// discovered in BFS order, at any worker count. Results stay
	// concrete states and witness traces stay genuine executions;
	// invariant predicates must be orbit-invariant (the symmetry must
	// be an automorphism of the automaton — see the reduce package,
	// whose differential battery enforces both obligations).
	Canon Canonicalizer
	// Spill, when non-nil, backs every seen set with the disk-spilling
	// store implementation (store.NewSpill) instead of the in-RAM
	// arena: interned encodings flush to delta-encoded sorted runs once
	// the hot batch exceeds its byte budget, and membership probes
	// merge-on-lookup across the runs. Exploration results are
	// bit-identical to the arena backend — the differential battery
	// pins it — at bounded RAM.
	Spill *store.SpillOptions
	// Decode rebuilds a state from its canonical encoding. It is only
	// required by Census's external mode, which keeps frontiers on disk
	// as encodings and must re-expand them; systems whose encodings are
	// self-describing (KeyState systems, internal/grid) provide it
	// trivially. Reach, CheckInvariant and the in-RAM Census never call
	// it: the sequential kernel decodes its own encodings through
	// ioa.Decoder (a composition's cells, an ioa.Decodable's bytes), and
	// Decode stays for the external census alone.
	Decode func(enc []byte) (ioa.State, error)
}

// WorkerCount resolves Workers: the number of goroutines a check runs
// under these options.
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
// sequential kernel and the external census both publish through it, so
// they cannot disagree about what a running or a finished exploration
// reports. Each loop defers one emit(…, done=true), so completion,
// violation, ErrLimit and cancellation all leave through the same
// report. With a nil Obs emit is a no-op.
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
// Options.Limit states, with the sequential kernel at any worker count.
// The result is BFS discovery order, bit-identical to ReferenceReach. It
// returns ErrLimit (with a partial result of exactly Limit states) iff
// an unseen state remains, and ctx.Err() (with the partial result so
// far) on cancellation.
func (e *Engine) Reach(ctx context.Context, a ioa.Automaton) ([]ioa.State, error) {
	order, _, err := e.seqExplore(ctxOr(ctx), a, nil, nil, nil, nil)
	return order, err
}

// CheckInvariant explores reachable states (up to Options.Limit) and
// checks pred at each, returning the first violation found with a
// witness execution, or nil if the invariant holds on every explored
// state. The violation is the first failing state in BFS discovery
// order and the witness its minimal-length discovery path, bit-identical
// to the seed CheckInvariant whenever the reachable state count is below
// the limit. pred is only called from the calling goroutine, and its
// argument is borrowed for the call: the kernel may rebuild the state in
// memory it reuses for the next one, so ioa.Keep what you retain. The
// violation's state and witness are the caller's to keep.
func (e *Engine) CheckInvariant(ctx context.Context, a ioa.Automaton, pred func(ioa.State) bool) (*Violation, error) {
	if pred == nil {
		return nil, fmt.Errorf("explore: CheckInvariant: nil predicate")
	}
	_, v, err := e.seqExplore(ctxOr(ctx), a, pred, nil, nil, nil)
	return v, err
}

// Graph explores a as Reach does and returns its reachable transition
// graph: the states in BFS discovery order (Reach's order), every step between them labeled with its action, and the
// edge that discovered each state, so StateGraph.Witness is the
// minimal execution CheckInvariant would report. It is Visit with a
// visitor that fills the graph's arrays, so — like Visit — it runs the
// sequential kernel whatever Options.Workers says, and the graph, and
// every lasso, certificate and drawing read off it, is the same at any
// worker count. Under Canon a step to any orbit-mate of a node is an
// edge to that node. On ErrLimit or cancellation it returns the error
// and no graph.
func (e *Engine) Graph(ctx context.Context, a ioa.Automaton) (*ltl.StateGraph, error) {
	g := &ltl.StateGraph{Auto: a, Off: []int{0}}
	order, err := e.Visit(ctx, a, graphVisitor{g, ioa.Number(a).Actions()})
	if err != nil {
		return nil, err
	}
	g.States = order
	return g, nil
}

// graphVisitor records a Visit as a CSR graph: Parent on admission,
// Edges on each step, named from acts, Off once a node is expanded.
type graphVisitor struct {
	g    *ltl.StateGraph
	acts []ioa.Action
}

func (v graphVisitor) Admit(_, parent int, _ ioa.State) {
	if parent < 0 {
		v.g.Starts++
	}
	v.g.Parent = append(v.g.Parent, parent)
}

func (v graphVisitor) Edge(_ int, act int32, to int) {
	v.g.Edges = append(v.g.Edges, ltl.Edge{Act: v.acts[act], To: to})
}

func (v graphVisitor) Expanded(int) { v.g.Off = append(v.g.Off, len(v.g.Edges)) }

// A Visitor watches one pass of the sequential kernel (Engine.Visit).
// Nodes are numbered in admission order from 0, which is the order of
// the states Visit returns. Its methods are called on the goroutine
// that called Visit, never concurrently.
type Visitor interface {
	// Admit is called once per admitted state s, numbered v, with the
	// node that was being expanded when s was found (-1 for a start
	// state). s is kept: the visitor may retain it.
	Admit(v, parent int, s ioa.State)
	// Edge is called once per step (from, act, to) between admitted
	// nodes, in the walk's order: node by node in admission order, then
	// sorted action, then Next order. act is the action's number, its
	// name ioa.Number(a).Actions()[act] (the visitor resolves it once,
	// not per edge). to has been admitted before its first edge.
	Edge(from int, act int32, to int)
	// Expanded is called once every edge out of v has been reported.
	Expanded(v int)
}

// Visit explores a as Reach does at one worker and reports the pass to
// v: each state as it is admitted, each step as it is taken, each node
// as its expansion ends. It always runs the sequential kernel, whatever
// Options.Workers says, so what v sees is the same at any worker count.
// Limit, Canon, Obs and Spill apply as in Reach; under Canon a step to
// any orbit-mate of a node is an edge to that node. It returns the
// states in discovery order and Reach's errors.
func (e *Engine) Visit(ctx context.Context, a ioa.Automaton, v Visitor) ([]ioa.State, error) {
	order, _, err := e.seqExplore(ctxOr(ctx), a, nil, v, nil, nil)
	return order, err
}

// seqExplore is the one sequential kernel, under Reach (pred nil),
// CheckInvariant, Visit (vis non-nil) and, with sum non-nil, the in-RAM
// Census. The frontier
// is the range of store IDs not yet expanded (every admitted state is
// expanded exactly once, in admission order), so visit order is
// bit-identical to the seed explorer's explicit queue, IDs double as
// result indices (both are dense admission order), and a level ends
// where the first state found while expanding it was admitted. A
// composite or an ioa.Decodable explored with no visitor, no Canon and
// the in-RAM store keeps no state at all: it expands each state decoded
// from its encoding into a Scratch of its own, decodes the witness's
// states onto the heap, and Reach's result from every ID once on the way
// out. Everything else keeps a heap copy of each admitted state in the
// result slice and expands that — a visitor may retain what Admit hands
// it, under Canon the state kept is the first-discovered concrete one
// while the encoding is its orbit's, and spill and other automata have
// nothing to decode.
//
// With a predicate it also records one (parent, act) crumb per state,
// checks pred on each state as it comes up for expansion, and builds the
// witness from the crumb chain. With a visitor it reports every
// admission, every successor's edge as the store answers it, and the end
// of every expansion; Visit takes Reach's limit contract. A census also
// calls visit, fills sum and builds no result.
//
// The two limit contracts differ on purpose. Reach (and Census) switch
// to probe mode once the budget is full: the first unseen successor
// aborts the enumeration with ErrLimit and exactly Limit states, and an
// exact-fit exploration (budget full, no unseen successor anywhere)
// still completes with a nil error; a census still visits and checks the
// admitted states it leaves unexpanded. CheckInvariant is stricter
// (matching the seed): a full store is an error before the next
// expansion even when the frontier is about to empty, because witnesses
// for states past the budget could not be built.
func (e *Engine) seqExplore(ctx context.Context, a ioa.Automaton, pred func(ioa.State) bool, vis Visitor, sum *Summary, visit func(ioa.State)) (order []ioa.State, v *Violation, err error) {
	limit := e.opts.limit()
	o := e.opts.Obs
	if o != nil {
		defer o.Tracer.Span(0, "explore", "seq "+a.Name())()
	}
	st, err := store.Open(e.opts.Spill)
	if err != nil {
		return nil, nil, err
	}
	//lint:ignore errflow storage failures surface through the sticky Err checks; Close here only releases temp files
	defer st.Close()
	var crumbs []crumb // indexed by ID; kept only under a predicate
	cur := store.None  // the state being expanded; int(store.None) is -1
	// level is cur's BFS depth, levelEnd the first ID past its level;
	// deepest is the depth of the last state admitted, emitted the
	// successors not admitted before cur's level ended.
	level, levelEnd, deepest := -1, 0, 0
	var deadlocks, emitted int64
	// A pass without a visitor publishes its levels, frontiers and
	// successors; Visit's passes walk an automaton some other check
	// is about, and count nothing but their states.
	counts := o != nil && vis == nil
	rep := reporter{o: o, st: st, phase: "explore"}
	defer func() {
		if sum != nil {
			*sum = Summary{States: int64(st.Len()), Depth: int64(deepest), Deadlocks: deadlocks, Violation: v}
		}
		if counts {
			o.Explore.Successors.Add(emitted)
		}
		rep.emit(int64(deepest), int64(st.Len()), 0, true)
	}()
	strict := pred != nil && sum == nil // CheckInvariant's limit contract
	step := ioa.NewWalk(a)
	// The kernel orders nothing by bytes, so it interns ioa.Encoder's
	// encoding, a composite's cell indices, rather than the Key.
	encode, canon := ioa.Encoder(a), e.opts.Canon
	// decode is nil where the kernel keeps heap states in order. A
	// composition's starts and steps are its own tuples, so every
	// encoding it interns has tag 1 and decodes.
	arena, _ := st.(*store.Store)
	decode := ioa.Decoder(a)
	if vis != nil || canon != nil || arena == nil {
		decode = nil
	}
	state := func(sc *ioa.Scratch, id store.ID) ioa.State {
		if decode == nil {
			return order[id]
		}
		return decode(sc, arena.Encoding(id))
	}
	if decode != nil && pred == nil && sum == nil {
		defer func() { // Reach's result, whatever the exit
			order = make([]ioa.State, st.Len())
			for i := range order {
				order[i] = state(nil, store.ID(i))
			}
		}()
	}
	var enc []byte
	encoded := func(s ioa.State) ([]byte, uint64) {
		if canon != nil {
			s = canon.Canonical(s)
		}
		enc = encode(enc[:0], s)
		return enc, store.Hash(enc)
	}
	admit := func(s ioa.State) store.ID {
		id, fresh := st.InternEncoded(encoded(s))
		if fresh {
			deepest = level + 1
			if decode == nil {
				order = append(order, ioa.Keep(s))
			}
			if pred != nil {
				crumbs = append(crumbs, crumb{parent: cur, act: step.Num})
			}
			if vis != nil {
				vis.Admit(int(id), int(cur), order[id])
			}
		}
		return id
	}
	for _, s := range a.Start() {
		admit(s)
	}
	// One yield closure for the whole sweep: Reach's, CheckInvariant's
	// and Census's, or Visit's, which also reports the edges.
	yield := func(nxt ioa.State) bool {
		id, seen := store.None, true
		if !strict && st.Len() >= limit {
			id, seen = st.Lookup(encoded(nxt))
		} else {
			id = admit(nxt)
		}
		if int(id) >= levelEnd {
			emitted++
		}
		return seen
	}
	if vis != nil {
		yield = func(nxt ioa.State) bool {
			id, seen := store.None, false
			if st.Len() < limit {
				id = admit(nxt)
			} else if id, seen = st.Lookup(encoded(nxt)); !seen {
				return false
			}
			if id == store.None {
				return false // the store latched an error; the loop reports it
			}
			vis.Edge(int(cur), step.Num, int(id))
			return true
		}
	}
	var sc ioa.Scratch // the decoded state being expanded
	limited := false
	for i := 0; i < st.Len() && (!limited || sum != nil); i++ {
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				return order, nil, err
			}
			if err := st.Err(); err != nil {
				return order, nil, seenErr(a, err)
			}
			if i&(seqProgressStride-1) == 0 && i > 0 {
				rep.emit(int64(deepest), int64(st.Len()), int64(st.Len()-i), false)
			}
		}
		if i == levelEnd && !limited {
			level, levelEnd = level+1, st.Len()
			if counts {
				o.Explore.Levels.Add(1)
				o.Explore.Frontier.Observe(int64(levelEnd - i))
				rep.emit(int64(deepest), int64(levelEnd), int64(levelEnd-i), false)
				o.Tracer.CounterEvent(0, "memo", o.Memo.Values())
			}
		}
		cur = store.ID(i)
		sc.Reset()
		s := state(&sc, cur)
		if visit != nil {
			visit(s)
		}
		if pred != nil {
			if !pred(s) {
				at := func(id store.ID) ioa.State { return state(nil, id) }
				return order, &Violation{State: at(cur), Trace: witnessFromCrumbs(a, at, crumbs, cur)}, nil
			}
			if strict && st.Len() >= limit {
				return order, nil, errLimit(a, limit)
			}
		}
		if limited {
			continue
		}
		// Only the probe mode of Reach, Census and Visit ever stops the
		// walk.
		limited = !step.Visit(s, yield)
		if step.Enabled == 0 {
			deadlocks++
		}
		if vis != nil && !limited {
			vis.Expanded(i)
		}
	}
	if err := st.Err(); err != nil {
		return order, nil, seenErr(a, err)
	}
	if limited {
		return order, nil, errLimit(a, limit)
	}
	return order, nil, nil
}

// crumb is the discovery record of one interned state, indexed by its
// dense ID: the (parent ID, action number) transition that first reached
// it, 16 bytes. Start states carry parent store.None.
type crumb struct {
	parent store.ID
	act    int32
}

// witnessFromCrumbs rebuilds the minimal-length execution
// from a start state to target by following parent IDs, reading each
// state on the chain, and only those, from at, and naming each action
// from a's table.
func witnessFromCrumbs(a ioa.Automaton, at func(store.ID) ioa.State, crumbs []crumb, target store.ID) *ioa.Execution {
	var rev []store.ID
	for id := target; ; id = crumbs[id].parent {
		rev = append(rev, id)
		if crumbs[id].parent == store.None {
			break
		}
	}
	acts := ioa.Number(a).Actions()
	x := ioa.NewExecution(a, at(rev[len(rev)-1]))
	for i := len(rev) - 2; i >= 0; i-- {
		x.Append(acts[crumbs[rev[i]].act], at(rev[i]))
	}
	return x
}
