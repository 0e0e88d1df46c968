// Package obs is the repository's stdlib-only observability layer:
// sharded allocation-free metrics (counters, gauges, power-of-two
// histograms), span tracing in the Chrome trace_event format, and
// debug endpoints (expvar + net/http/pprof).
//
// The design contract is that disabled observability is near-free. A
// nil *Obs (and the nil metric-set and tracer pointers it implies) is
// the off switch: every instrumented hot path guards its
// instrumentation behind one nil check and performs no allocation, no
// atomic operation, and no clock read when observability is off.
// BenchmarkObsOverhead in internal/explore pins the ≤2% budget
// against the pre-instrumentation engine (EXPERIMENTS.md E17).
//
// Wall-clock access is injected: New takes a clock (nil means
// testseed.Now, the repository's single sanctioned accessor), so the
// nondet analyzer's no-time.Now guarantee holds here too, and tests
// drive tracers and timing histograms with fake clocks.
package obs

import (
	"expvar"
	"fmt"
	"sync"
	"time"

	"repro/internal/testseed"
)

// An Obs bundles the observability sinks one run threads through the
// instrumented subsystems: a metric registry with pre-resolved typed
// metric sets, and a tracer. A nil *Obs disables everything.
type Obs struct {
	// Reg owns every metric; Snapshot/WriteJSON serve the -metrics-out
	// artifact and the expvar endpoint.
	Reg *Registry
	// Tracer collects trace_event spans for -trace-out.
	Tracer *Tracer

	// Explore, Memo, Sim, Faults, Proof, Store, Stabilize, Induct are
	// the per-subsystem metric sets, pre-resolved from Reg so hot
	// paths never take the registry lock.
	Explore   *ExploreMetrics
	Memo      *MemoMetrics
	Sim       *SimMetrics
	Faults    *FaultMetrics
	Proof     *ProofMetrics
	Store     *StoreMetrics
	Stabilize *StabilizeMetrics
	Induct    *InductMetrics
	Dist      *DistMetrics

	// Progress, when non-nil, receives in-flight Progress snapshots
	// from the engines (BFS barriers, the induct streaming loop).
	// Engines call EmitProgress rather than this field directly so the
	// nil-Obs fast path stays a single comparison. Set it before the
	// run starts; it may be called from whichever goroutine drives the
	// walk, so sinks must be internally synchronized.
	Progress func(Progress)

	clock func() time.Time
}

// New builds an enabled Obs. clock supplies the wall time for spans
// and timing histograms; nil means testseed.Now.
func New(clock func() time.Time) *Obs {
	if clock == nil {
		clock = testseed.Now
	}
	reg := NewRegistry()
	return &Obs{
		Reg:       reg,
		Tracer:    NewTracer(clock),
		Explore:   newExploreMetrics(reg),
		Memo:      newMemoMetrics(reg),
		Sim:       newSimMetrics(reg),
		Faults:    newFaultMetrics(reg),
		Proof:     newProofMetrics(reg),
		Store:     newStoreMetrics(reg),
		Stabilize: newStabilizeMetrics(reg),
		Induct:    newInductMetrics(reg),
		Dist:      newDistMetrics(reg),
		clock:     clock,
	}
}

// Now reads the observation clock; the zero time when o is nil.
func (o *Obs) Now() time.Time {
	if o == nil {
		return time.Time{}
	}
	return o.clock()
}

// ExploreMetrics instruments the state-space explorers.
type ExploreMetrics struct {
	// States counts admitted states (equals the result length).
	States *Counter
	// Levels counts expanded BFS levels.
	Levels *Counter
	// Successors counts the successors not seen before their level's
	// expansion began: every one, duplicates within the level
	// included, not the distinct states admitted.
	Successors *Counter
	// Frontier is the distribution of per-level frontier sizes.
	Frontier *Histogram
}

func newExploreMetrics(r *Registry) *ExploreMetrics {
	return &ExploreMetrics{
		States:     r.Counter("explore.states_admitted"),
		Levels:     r.Counter("explore.levels"),
		Successors: r.Counter("explore.successors_emitted"),
		Frontier:   r.Histogram("explore.frontier_size"),
	}
}

// MemoMetrics instruments the composition transition/enabled caches:
// the memo rows an ioa.Composite keeps in its cell of each leaf state,
// counted at the composite being stepped.
type MemoMetrics struct {
	NextHit, NextMiss       *Counter
	EnabledHit, EnabledMiss *Counter
}

func newMemoMetrics(r *Registry) *MemoMetrics {
	return &MemoMetrics{
		NextHit:     r.Counter("memo.next_hit"),
		NextMiss:    r.Counter("memo.next_miss"),
		EnabledHit:  r.Counter("memo.enabled_hit"),
		EnabledMiss: r.Counter("memo.enabled_miss"),
	}
}

// Values returns the current readings keyed for a tracer counter
// series.
func (m *MemoMetrics) Values() map[string]int64 {
	if m == nil {
		return nil
	}
	return map[string]int64{
		"next_hit":     m.NextHit.Value(),
		"next_miss":    m.NextMiss.Value(),
		"enabled_hit":  m.EnabledHit.Value(),
		"enabled_miss": m.EnabledMiss.Value(),
	}
}

// SimMetrics instruments the untimed simulator: aggregate step counts
// and per-fairness-class fire counters, which expose the
// partition-fairness structure of §2.1 empirically — under a fair
// policy every class's counter grows; a starved class's counter
// stalls.
type SimMetrics struct {
	// Runs counts simulation runs.
	Runs *Counter
	// Steps counts scheduled steps across runs.
	Steps *Counter
	// EnabledClasses is the distribution of how many classes were
	// schedulable at each step (scheduling pressure).
	EnabledClasses *Histogram

	reg     *Registry
	mu      sync.Mutex
	classes map[string]*Counter
}

func newSimMetrics(r *Registry) *SimMetrics {
	return &SimMetrics{
		Runs:           r.Counter("sim.runs"),
		Steps:          r.Counter("sim.steps"),
		EnabledClasses: r.Histogram("sim.enabled_classes"),
		reg:            r,
		classes:        make(map[string]*Counter),
	}
}

// ClassFire counts one fired action of the named fairness class. The
// per-class counters appear in snapshots as "sim.class_fires.<name>".
func (m *SimMetrics) ClassFire(class string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	c, ok := m.classes[class]
	if !ok {
		c = m.reg.Counter("sim.class_fires." + class)
		m.classes[class] = c
	}
	m.mu.Unlock()
	c.Add(1)
}

// FaultMetrics counts injected fault events per class, exactly one
// count per computed fault effect: a step that runs an adversary
// action's effect or a scheduled send counts once, and asking whether
// an action is enabled runs no effect and counts nothing. Under the
// composition memo, an effect is computed once per distinct (state,
// action) and then replayed from cache, so these count distinct fault
// computations, not trace occurrences; see DESIGN.md's observability
// section.
type FaultMetrics struct {
	Sent    *Counter // messages offered to scheduled channels
	Drop    *Counter
	Dup     *Counter
	Delay   *Counter // messages given a nonzero overtake budget
	Reorder *Counter // adversary reorder actions fired
	Crash   *Counter
	Restart *Counter
}

func newFaultMetrics(r *Registry) *FaultMetrics {
	return &FaultMetrics{
		Sent:    r.Counter("faults.messages_sent"),
		Drop:    r.Counter("faults.drop"),
		Dup:     r.Counter("faults.dup"),
		Delay:   r.Counter("faults.delay"),
		Reorder: r.Counter("faults.reorder"),
		Crash:   r.Counter("faults.crash"),
		Restart: r.Counter("faults.restart"),
	}
}

// StoreMetrics instruments the interned state store behind the
// explorers (internal/store): how many distinct states are interned
// and how many encoded bytes the shard arenas hold. Both are gauges
// set at level barriers (and at the end of sequential sweeps), so a
// live /debug/vars scrape shows the current exploration's footprint;
// bytes-per-state is ArenaBytes/Occupancy.
type StoreMetrics struct {
	// Occupancy is the number of interned states.
	Occupancy *Gauge
	// ArenaBytes is the total encoded payload across shard arenas.
	ArenaBytes *Gauge
	// ArenaCapBytes is the total reserved arena capacity; the slack
	// over ArenaBytes is append-growth overshoot.
	ArenaCapBytes *Gauge
	// SpilledBytes is the live on-disk run volume of a disk-spilling
	// seen set (store.Spill); 0 while exploring in RAM.
	SpilledBytes *Gauge
	// SpillRuns is the number of live sorted runs the spill set holds.
	SpillRuns *Gauge
	// SpillResidentBytes is what the spill set holds in memory: hot
	// batch, run filters and sparse indexes, idle cursor buffers.
	SpillResidentBytes *Gauge
	// The spill set's read side, as running totals of the current
	// exploration: tier compactions, run entries decoded, blocks read one
	// at a time and filter false positives, and the batch merges — how
	// many, and the candidates they brought.
	SpillCompactions         *Gauge
	SpillEntriesDecoded      *Gauge
	SpillBlocksRead          *Gauge
	SpillBloomFalsePositives *Gauge
	SpillMerges              *Gauge
	SpillMergeCandidates     *Gauge
}

func newStoreMetrics(r *Registry) *StoreMetrics {
	return &StoreMetrics{
		Occupancy:     r.Gauge("store.occupancy"),
		ArenaBytes:    r.Gauge("store.arena_bytes"),
		ArenaCapBytes: r.Gauge("store.arena_cap_bytes"),
		SpilledBytes:  r.Gauge("store.spilled_bytes"),
		SpillRuns:     r.Gauge("store.spill_runs"),

		SpillResidentBytes:       r.Gauge("store.spill_resident_bytes"),
		SpillCompactions:         r.Gauge("store.spill_compactions"),
		SpillEntriesDecoded:      r.Gauge("store.spill_entries_decoded"),
		SpillBlocksRead:          r.Gauge("store.spill_blocks_read"),
		SpillBloomFalsePositives: r.Gauge("store.spill_bloom_false_positives"),
		SpillMerges:              r.Gauge("store.spill_merges"),
		SpillMergeCandidates:     r.Gauge("store.spill_merge_candidates"),
	}
}

// StabilizeMetrics instruments the self-stabilization certifier
// (internal/stabilize): certification runs, envelope and closure
// sizes, the measured convergence bound, and the per-envelope-state
// rounds-to-legitimacy distribution (the stabilization-time histogram
// behind EXPERIMENTS.md E19).
type StabilizeMetrics struct {
	// Runs counts certification runs.
	Runs *Counter
	// States is the envelope-closure size of the latest run.
	States *Gauge
	// Envelope is the distinct corrupt-start count of the latest run.
	Envelope *Gauge
	// K is the latest measured worst-case rounds-to-legitimacy; -1
	// when convergence is fair-only (unbounded) or fails.
	K *Gauge
	// Rounds is the distribution of rounds-to-legitimacy over envelope
	// states, accumulated across runs.
	Rounds *Histogram
}

func newStabilizeMetrics(r *Registry) *StabilizeMetrics {
	return &StabilizeMetrics{
		Runs:     r.Counter("stabilize.runs"),
		States:   r.Gauge("stabilize.closure_states"),
		Envelope: r.Gauge("stabilize.envelope_states"),
		K:        r.Gauge("stabilize.k"),
		Rounds:   r.Histogram("stabilize.rounds_to_legitimacy"),
	}
}

// InductMetrics instruments the inductive-invariant certification
// engine (internal/induct): certification runs, the latest run's
// domain walk sizes, CTI count, and per-conjunct obligation counters
// — how many (state, step, conjunct) proof obligations each lemma of
// the strengthened conjunction discharged.
type InductMetrics struct {
	// Runs counts certification runs.
	Runs *Counter
	// Domain is the latest run's enumerated-domain size; Candidates
	// the subset satisfying the candidate invariant (whose steps carry
	// obligations); Transitions the pushed transition count.
	Domain      *Gauge
	Candidates  *Gauge
	Transitions *Gauge
	// CTIs counts counterexamples-to-induction across runs.
	CTIs *Counter

	reg         *Registry
	mu          sync.Mutex
	obligations map[string]*Counter
}

func newInductMetrics(r *Registry) *InductMetrics {
	return &InductMetrics{
		Runs:        r.Counter("induct.runs"),
		Domain:      r.Gauge("induct.domain_states"),
		Candidates:  r.Gauge("induct.candidates"),
		Transitions: r.Gauge("induct.transitions"),
		CTIs:        r.Counter("induct.ctis"),
		reg:         r,
		obligations: make(map[string]*Counter),
	}
}

// Obligations credits n discharged obligations to the named conjunct.
// The per-conjunct counters appear in snapshots as
// "induct.obligations.<name>".
func (m *InductMetrics) Obligations(conjunct string, n int64) {
	if m == nil || n == 0 {
		return
	}
	m.mu.Lock()
	c, ok := m.obligations[conjunct]
	if !ok {
		c = m.reg.Counter("induct.obligations." + conjunct)
		m.obligations[conjunct] = c
	}
	m.mu.Unlock()
	c.Add(n)
}

// DistMetrics instruments the multi-process cluster coordinator
// (internal/cluster): level barriers, cross-process candidate volume,
// cumulative barrier wait, and a per-rank shard-occupancy gauge for
// balance monitoring.
type DistMetrics struct {
	// Levels counts completed cluster-wide level barriers.
	Levels *Counter
	// SentEncs counts candidate encodings the coordinator sent to the
	// shards.
	SentEncs *Counter
	// BarrierWaitNS accumulates worker time spent waiting for each
	// level's batch, summed across ranks.
	BarrierWaitNS *Counter
	// Procs is the worker process count of the current run.
	Procs *Gauge

	reg    *Registry
	mu     sync.Mutex
	shards map[int]*Gauge
}

func newDistMetrics(r *Registry) *DistMetrics {
	return &DistMetrics{
		Levels:        r.Counter("dist.levels"),
		SentEncs:      r.Counter("dist.sent_encs"),
		BarrierWaitNS: r.Counter("dist.barrier_wait_ns"),
		Procs:         r.Gauge("dist.procs"),
		reg:           r,
		shards:        make(map[int]*Gauge),
	}
}

// ShardStates sets rank's shard occupancy. The per-rank gauges appear
// in snapshots as "dist.shard_states.<rank>".
func (m *DistMetrics) ShardStates(rank int, states int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	g, ok := m.shards[rank]
	if !ok {
		g = m.reg.Gauge(fmt.Sprintf("dist.shard_states.%d", rank))
		m.shards[rank] = g
	}
	m.mu.Unlock()
	g.Set(states)
}

// ProofMetrics instruments the possibilities-mapping checker, which
// checks condition 2 on each step of its one walk of A, in walk order.
type ProofMetrics struct {
	// MapStates counts reachable states of A all of whose outgoing
	// steps were checked against the mapping conditions.
	MapStates *Counter
	// MapSteps counts individual (state, action, successor) step
	// checks.
	MapSteps *Counter
	// StateNS is the distribution of per-state check times (ns): from
	// the end of one state's checks (the walk's start, for the first)
	// to the end of the next. The walk runs on its own goroutine, and
	// this times the checking side only: Map and the checks, the clock
	// restarting when a batch of the walk's calls arrives, so no wait
	// for the walk is counted.
	StateNS *Histogram
}

func newProofMetrics(r *Registry) *ProofMetrics {
	return &ProofMetrics{
		MapStates: r.Counter("proof.map_states_checked"),
		MapSteps:  r.Counter("proof.map_steps_checked"),
		StateNS:   r.Histogram("proof.map_state_check_ns"),
	}
}

// expvarMu serializes Publish checks: expvar panics on duplicate
// names, and tests publish repeatedly.
var expvarMu sync.Mutex

// PublishExpvar registers the registry snapshot under name in the
// process-wide expvar table (served at /debug/vars). Publishing the
// same name again is a no-op, so repeated runs in one process (tests)
// keep the first binding.
func (o *Obs) PublishExpvar(name string) {
	if o == nil {
		return
	}
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	reg := o.Reg
	expvar.Publish(name, expvar.Func(func() any { return reg.Snapshot() }))
}
