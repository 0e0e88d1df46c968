// Command ioasim simulates the systems built in this repository: the
// figure examples of Chapter 2, Schönhage's arbiter at each of its
// three levels of abstraction (closed with user automata), and the
// token-ring arbiter.
//
// Usage:
//
//	ioasim -system fig21|fig22|fig23c|arbiter1|arbiter2|arbiter3|arbiter3r|star|ring|mutex|dijkstra|lamport|grid
//	       [-steps n] [-policy rr|random] [-seed n] [-users n]
//	       [-grid-base m] [-grid-digits k]
//	       [-faults drop=0.1,dup=0.05,delay=3] [-fault-seed n]
//	       [-trace] [-json] [-dot] [-reach] [-stabilize] [-induct]
//	       [-workers n] [-limit n]
//	       [-spill-dir dir] [-spill-mem-mb n]
//	       [-dist-listen host:port -dist-workers n [-dist-spawn]]
//	       [-dist-join host:port [-dist-corrupt]]
//	       [-obs-addr host:port] [-trace-out file] [-metrics-out file]
//	       [-ledger-out file] [-progress] [-stall-after d]
//
// The -reach flag explores the system's reachable state space instead
// of simulating it, reporting the state count and deadlocks.
//
// External memory: -spill-dir backs the seen set with the disk-
// spilling store (delta-encoded sorted runs under the directory),
// keeping at most -spill-mem-mb MiB of interned keys resident. For
// systems with a canonical decodable encoding (grid), -reach
// -spill-dir runs the external census — frontier and seen set both on
// disk — so state spaces far beyond RAM complete under a fixed budget
// (EXPERIMENTS.md E23 walks the 10⁸-state grid this way). The grid
// system is the scale harness: a k-digit base-m counter (-grid-base,
// -grid-digits) with closed-form state count m^k, depth k·(m-1), and
// exactly one deadlock, so huge runs are checkable.
//
// Distributed exploration: -dist-listen starts a coordinator that
// shards the interned key space across -dist-workers OS processes
// (owner = hash(encoding) mod procs) with level-synchronized barriers;
// counts and verdicts are bit-identical at any process count.
// -dist-spawn makes the coordinator fork the workers from its own
// binary; otherwise start each worker by hand with -dist-join
// host:port and the same -system flags. Workers verify every received
// candidate actually belongs to their shard, so a corrupted shard
// assignment (-dist-corrupt, the CI must-fail probe) aborts the
// cluster rather than silently double-counting.
//
// The -induct flag certifies the system's safety invariant by one-step
// induction instead of exploring: every start state must satisfy the
// invariant, and every transition from an invariant state of the
// candidate domain must land back in it. The domain is streamed, so
// certification runs in O(1) resident memory over complete
// combinatorial spaces far beyond any reachability frontier — the
// lamport system (Lamport's bounded-clock mutual-exclusion algorithm,
// -users processes, clocks to 2, unit channels) certifies mutual
// exclusion over 518,400 candidate states at -users 2 against a
// reachable set of a few dozen; because the domain grows by roughly
// five orders of magnitude per extra process, lamport -induct defaults
// to that certified 2-process configuration unless -users is given
// explicitly. On failure the counterexample to
// induction (pre-state, action, post-state, first violated conjunct)
// is printed and the process exits non-zero, so CI can assert both
// directions. Supported systems: arbiter1, dijkstra, ring, mutex,
// lamport.
//
// The -stabilize flag runs the self-stabilization certifier instead of
// simulating: it checks closure (the legitimate-state set is invariant
// under all steps) and convergence (every fair execution from every
// state of a corruption envelope reaches legitimacy, with the worst
// case measured in rounds) and prints the certificate. It applies to
// the dijkstra system (Dijkstra's K-state token ring with n machines
// and modulus K both set by -users, certified from the full K^n
// corruption envelope — expected to pass)
// and to the ring system (the LeLann token ring certified from the
// crash-restart corruption envelope — expected to FAIL, exiting
// non-zero, since a lost token never regenerates). The exit status is
// the verdict, so CI can assert both directions. The
// exploration knobs (-workers, -limit) are the shared set
// registered by explore.BindFlags — identical flags and defaults in
// arbiterbench — and resolve into the explore.Options behind one
// explore.Engine: -workers selects the sharded parallel explorer (0 =
// GOMAXPROCS, 1 = sequential), whose per-depth key-sorted order is
// identical at any worker count; -limit bounds the exploration.
//
// The -faults flag injects seeded channel faults into the distributed
// arbiter systems: arbiter3 runs the plain A₃ over the faulty channels
// (and visibly starves or deadlocks under loss), arbiter3r runs the
// retry-hardened A₃ʳ whose alternating-bit links mask loss and
// duplication. Fault decisions are a pure function of (-fault-seed,
// channel, message sequence number), so runs are reproducible. The
// fault classes are drop (loss rate), dup (duplication rate), and
// delay (reordering bound; tolerated by neither variant — the
// alternating-bit links assume FIFO channels).
//
// Observability: -trace-out writes a Chrome trace_event JSON file
// (load it at https://ui.perfetto.dev or chrome://tracing) with spans
// for exploration levels and worker expansions, instant events for
// injected faults, and counter series for the composition memo.
// -metrics-out writes a JSON snapshot of every counter and histogram
// (states admitted, memo hit/miss, per-class fire counts, fault
// counts). -obs-addr serves live expvar metrics at /debug/vars, pprof
// profiles at /debug/pprof/, a liveness probe at /debug/healthz, and —
// when a ledger is active — live progress at /debug/progress (JSON)
// and /debug/progress/html, for the duration of the run. -ledger-out
// appends a schema-versioned JSONL run ledger (see internal/ledger):
// one provenance record per run (system, seed, explicitly-set flags,
// wall time, states, per-conjunct obligation counts, verdict, artifact
// paths) plus periodic progress snapshots with derived states/sec and
// ETA. -progress echoes the same snapshots to stderr as human-readable
// lines. While a ledger is active a stall watchdog journals a
// goroutine dump and the recent journal ring whenever no progress
// lands within -stall-after (default 30s; 0 disables) — the run keeps
// going, the evidence is for the postmortem. Any of
// the flags enables instrumentation; with none set the
// observability layer is off and costs nothing.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/exec"
	"time"

	"repro/internal/arbiter/dist"
	"repro/internal/arbiter/graphlevel"
	"repro/internal/arbiter/spec"
	"repro/internal/arbiter/users"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/domain"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/figures"
	"repro/internal/graph"
	"repro/internal/grid"
	"repro/internal/induct"
	"repro/internal/ioa"
	"repro/internal/ledger"
	"repro/internal/mutex"
	"repro/internal/obs"
	"repro/internal/reduce"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stabilize"
	"repro/internal/store"
	"repro/internal/testseed"
)

// config carries every flag; run is pure in (config, out), so tests
// drive the whole CLI without exec'ing the binary.
type config struct {
	system    string
	steps     int
	policy    string
	seed      int64
	nUsers    int
	trace     bool
	jsonOut   bool
	dotOut    bool
	faults    string
	faultSd   int64
	reach     bool
	stabilize bool
	induct    bool
	symmetry  bool
	por       bool
	explore   explore.Options

	gridM, gridK int

	distListen  string
	distWorkers int
	distJoin    string
	distSpawn   bool
	distCorrupt bool

	obsAddr    string
	traceOut   string
	metricsOut string
	ledgerOut  string
	progress   bool
	stallAfter time.Duration

	// usersSet records whether -users was given explicitly; without
	// it, lamport -induct downsizes to its certified 2-process domain
	// (the full 3-process candidate space is ~10^13 states).
	usersSet bool
	// flags holds the explicitly-set command-line flags, journaled as
	// run provenance; nil when run is driven directly from tests.
	flags map[string]string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ioasim: ")
	var cfg config
	flag.StringVar(&cfg.system, "system", "arbiter3", "system to simulate")
	flag.IntVar(&cfg.steps, "steps", 100, "maximum steps")
	flag.StringVar(&cfg.policy, "policy", "rr", "scheduling policy: rr or random")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the random policy")
	flag.IntVar(&cfg.nUsers, "users", 3, "number of users (arbiter systems)")
	flag.IntVar(&cfg.gridM, "grid-base", 10, "digit base m of the grid scale harness (m^k states)")
	flag.IntVar(&cfg.gridK, "grid-digits", 8, "digit count k of the grid scale harness")
	flag.BoolVar(&cfg.trace, "trace", false, "print the full step trace")
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit the trace as JSON events on stdout")
	flag.BoolVar(&cfg.dotOut, "dot", false, "emit the reachable state graph in Graphviz DOT format and exit")
	flag.StringVar(&cfg.faults, "faults", "none", "channel fault profile, e.g. drop=0.1,dup=0.05,delay=3 (arbiter3/arbiter3r)")
	flag.Int64Var(&cfg.faultSd, "fault-seed", 1, "seed for the deterministic fault schedule")
	flag.BoolVar(&cfg.reach, "reach", false, "explore the reachable state space instead of simulating")
	flag.BoolVar(&cfg.stabilize, "stabilize", false, "certify self-stabilization instead of simulating (dijkstra/ring); exits non-zero when not stabilizing")
	flag.BoolVar(&cfg.induct, "induct", false, "certify the safety invariant by one-step induction (arbiter1/dijkstra/ring/mutex/lamport); exits non-zero on a CTI")
	ex := explore.BindFlags(flag.CommandLine)
	flag.StringVar(&cfg.obsAddr, "obs-addr", "", "serve live expvar + pprof debug endpoints on this address (e.g. :6060)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write a Chrome trace_event JSON file to this path")
	flag.StringVar(&cfg.metricsOut, "metrics-out", "", "write a metrics snapshot JSON file to this path")
	flag.StringVar(&cfg.ledgerOut, "ledger-out", "", "append a JSONL run ledger (provenance record + progress snapshots) to this path")
	flag.BoolVar(&cfg.progress, "progress", false, "echo live progress snapshots to stderr")
	flag.DurationVar(&cfg.stallAfter, "stall-after", 30*time.Second, "with -ledger-out/-progress: journal a stall dump when no progress lands within this window (0 disables)")
	flag.Parse()
	cfg.explore = ex.Options()
	cfg.symmetry = ex.Symmetry()
	cfg.por = ex.POR()
	cfg.distListen = ex.DistListen()
	cfg.distWorkers = ex.DistWorkers()
	cfg.distJoin = ex.DistJoin()
	cfg.distSpawn = ex.DistSpawn()
	cfg.distCorrupt = ex.DistCorrupt()
	cfg.flags = make(map[string]string)
	flag.Visit(func(f *flag.Flag) {
		cfg.flags[f.Name] = f.Value.String()
		if f.Name == "users" {
			cfg.usersSet = true
		}
	})
	if err := run(cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes one ioasim invocation, writing human output to out.
// Observability artifacts (-trace-out, -metrics-out) are written even
// when the run itself fails, so a trace of the failing run survives,
// and the ledger's provenance record is appended last so it names the
// artifacts and carries the final verdict; all errors, including
// partial-write errors from the artifact and ledger files, are
// combined into the returned error.
func run(cfg config, out io.Writer) error {
	prof, err := faults.ParseProfile(cfg.faults)
	if err != nil {
		return err
	}
	var o *obs.Obs
	if cfg.obsAddr != "" || cfg.traceOut != "" || cfg.metricsOut != "" || cfg.ledgerOut != "" || cfg.progress {
		o = obs.New(nil)
		o.Tracer.NameProcess("ioasim -system " + cfg.system)
	}
	var (
		led     *ledger.Ledger
		ledFile *os.File
	)
	if cfg.ledgerOut != "" || cfg.progress {
		w := io.Writer(io.Discard)
		if cfg.ledgerOut != "" {
			// O_APPEND, not truncate: the ledger is a journal, and CI
			// jobs accumulate several runs into one artifact file.
			ledFile, err = os.OpenFile(cfg.ledgerOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			w = ledFile
		}
		var lopts ledger.Options
		if cfg.progress {
			lopts.Echo = os.Stderr
		}
		led = ledger.New(w, lopts)
		o.Progress = led.OnProgress
		if cfg.stallAfter > 0 {
			wd := led.NewWatchdog(cfg.stallAfter)
			wd.Start()
			defer wd.Stop()
		}
	}
	var stopServe func() error
	if cfg.obsAddr != "" {
		o.PublishExpvar("ioasim")
		var extra []obs.Endpoint
		if led != nil {
			extra = led.Endpoints()
		}
		addr, stop, err := obs.Serve(cfg.obsAddr, extra...)
		if err != nil {
			return err
		}
		stopServe = stop
		fmt.Fprintf(out, "obs: serving http://%s/debug/vars and /debug/pprof/\n", addr)
	}

	rec := &ledger.Run{
		Tool:     "ioasim",
		Mode:     runMode(cfg),
		System:   cfg.system,
		Seed:     cfg.seed,
		Users:    cfg.nUsers,
		Workers:  cfg.explore.Workers,
		Limit:    cfg.explore.Limit,
		Symmetry: cfg.symmetry,
		POR:      cfg.por,
		Flags:    cfg.flags,
	}
	started := testseed.Now()

	if cfg.distJoin != "" {
		err = workerRun(cfg, prof, o)
	} else if cfg.distListen != "" {
		err = coordRun(cfg, o, rec, out)
	} else if cfg.stabilize {
		err = certifyRun(cfg, prof, o, rec, out)
	} else if cfg.induct {
		err = inductRun(cfg, prof, o, rec, out)
	} else {
		var auto ioa.Automaton
		auto, err = buildSystem(cfg, prof, o)
		if err == nil {
			if o != nil {
				ioa.SetObsDeep(auto, o)
			}
			auto, err = applyReduction(&cfg, auto)
		}
		if err == nil {
			err = dispatch(cfg, auto, o, rec, out)
		}
	}

	if cfg.traceOut != "" {
		err = errors.Join(err, writeFile(cfg.traceOut, o.Tracer.WriteJSON))
		rec.Artifacts = append(rec.Artifacts, cfg.traceOut)
	}
	if cfg.metricsOut != "" {
		err = errors.Join(err, writeFile(cfg.metricsOut, o.Reg.WriteJSON))
		rec.Artifacts = append(rec.Artifacts, cfg.metricsOut)
	}
	if led != nil {
		rec.WallNS = testseed.Now().Sub(started).Nanoseconds()
		rec.Verdict = "ok"
		if err != nil {
			rec.Verdict = "fail"
			if rec.Detail == "" {
				rec.Detail = err.Error()
			}
		}
		err = errors.Join(err, led.Record(*rec))
	}
	if ledFile != nil {
		err = errors.Join(err, ledFile.Close())
	}
	if stopServe != nil {
		err = errors.Join(err, stopServe())
	}
	return err
}

// runMode names the entry point for the ledger's provenance record.
func runMode(cfg config) string {
	switch {
	case cfg.distJoin != "":
		return "dist-worker"
	case cfg.distListen != "":
		return "dist-coordinate"
	case cfg.stabilize:
		return "stabilize"
	case cfg.induct:
		return "induct"
	case cfg.dotOut:
		return "dot"
	case cfg.reach:
		return "reach"
	default:
		return "simulate"
	}
}

// systemCanonicalizer resolves -symmetry for a system: the
// canonicalizer of its automorphism group, or an error for systems
// with none registered.
func systemCanonicalizer(system string, nUsers int) (store.Canonicalizer, error) {
	switch system {
	case "arbiter1":
		return reduce.NewArbiterUsers(nUsers)
	case "star":
		return reduce.NewStarRotation(nUsers)
	case "ring":
		return reduce.NewRingRotation(nUsers)
	case "dijkstra":
		return reduce.NewDijkstraShift(nUsers)
	default:
		return nil, fmt.Errorf("-symmetry: no canonicalizer registered for system %q (try arbiter1, star, ring, dijkstra)", system)
	}
}

// systemPOROptions resolves -por for a system: the arbiter systems get
// the semantic per-leaf rules and the mutual-exclusion visibility
// predicate; everything else falls back to the conservative structural
// analysis (sound for any closed system, rarely reducing).
func systemPOROptions(system string, nUsers int) (reduce.Options, error) {
	var tr *graph.Tree
	var err error
	switch system {
	case "arbiter2", "arbiter3", "arbiter3r":
		tr, err = graph.BinaryTree(nUsers)
	case "star":
		tr, err = graph.Star(nUsers)
	default:
		return reduce.Options{}, nil
	}
	if err != nil {
		return reduce.Options{}, err
	}
	return reduce.Options{Rules: reduce.ArbiterRules(tr), Visible: reduce.HolderVisibility}, nil
}

// applyReduction resolves -symmetry and -por into the exploration
// options. Both apply to -reach only: simulation follows one concrete
// schedule, so there is nothing to quotient or prune. A system with
// residual environment inputs (mutex's unpaired register invocations)
// is wrapped in explore.ClosedWorld first — POR is only defined for
// closed systems, and the wrapper's name suffix makes the changed
// baseline visible in the -reach report. The returned automaton is
// the one to explore.
func applyReduction(cfg *config, auto ioa.Automaton) (ioa.Automaton, error) {
	if !cfg.symmetry && !cfg.por {
		return auto, nil
	}
	if !cfg.reach {
		return nil, errors.New("-symmetry/-por apply to -reach (use -stabilize -symmetry for the certifier)")
	}
	if cfg.symmetry {
		c, err := systemCanonicalizer(cfg.system, cfg.nUsers)
		if err != nil {
			return nil, err
		}
		cfg.explore.Canon = c
	}
	if cfg.por {
		if auto.Sig().Inputs().Len() > 0 {
			auto = explore.ClosedWorld(auto)
		}
		opts, err := systemPOROptions(cfg.system, cfg.nUsers)
		if err != nil {
			return nil, err
		}
		p, err := reduce.NewPOR(auto, opts)
		if err != nil {
			return nil, err
		}
		cfg.explore.Ample = p
	}
	return auto, nil
}

// certifyRun certifies self-stabilization of the selected system and
// prints the certificate. The dijkstra system is certified from its
// full K^n corruption envelope; the ring system (LeLann) from the
// crash-restart envelope — the reachable states of the ring with every
// process wrapped in faults.CrashRestart, projected back into the
// clean composition. A non-stabilizing verdict is an error, so the
// process exits non-zero.
func certifyRun(cfg config, prof faults.Profile, o *obs.Obs, rec *ledger.Run, out io.Writer) error {
	if !prof.Zero() {
		return errors.New("-stabilize certifies state corruption envelopes; channel -faults do not apply")
	}
	if cfg.por {
		return errors.New("-por does not apply to -stabilize: convergence bounds need the full transition graph")
	}
	opts := stabilize.Options{Workers: cfg.explore.Workers, Limit: cfg.explore.Limit, Obs: o}
	if cfg.symmetry {
		if cfg.system != "dijkstra" {
			return errors.New("-stabilize -symmetry is supported for the dijkstra system only")
		}
		c, err := reduce.NewDijkstraShift(cfg.nUsers)
		if err != nil {
			return err
		}
		opts.Canon = c
	}
	var (
		auto  ioa.Automaton
		legit func(ioa.State) bool
		env   stabilize.Envelope
	)
	switch cfg.system {
	case "dijkstra":
		r, err := ring.NewDijkstra(cfg.nUsers, cfg.nUsers)
		if err != nil {
			return err
		}
		auto, legit = r.Auto, r.Legit
		env = r.StateDomain()
	case "ring":
		sys, err := ring.New(spec.DefaultUsers(cfg.nUsers))
		if err != nil {
			return err
		}
		comps := make([]ioa.Automaton, len(sys.Procs))
		for i, p := range sys.Procs {
			comps[i], err = faults.CrashRestart(p, "p"+fmt.Sprint(i), faults.Reset)
			if err != nil {
				return err
			}
		}
		crashed, err := ioa.Compose("ring-crash", comps...)
		if err != nil {
			return err
		}
		auto = sys.Composite
		legit = func(s ioa.State) bool { return sys.TokenCount(s) == 1 }
		env = domain.Reachable("crash(reset)", crashed, domain.TupleMap(domain.CrashInner),
			explore.Options{Workers: opts.Workers, Limit: opts.Limit})
	default:
		return fmt.Errorf("-stabilize applies to dijkstra and ring, not %q", cfg.system)
	}
	if o != nil {
		ioa.SetObsDeep(auto, o)
	}
	cert, err := stabilize.Certify(context.Background(), auto, legit, env, opts)
	if err != nil {
		return err
	}
	rec.Domain = cert.Envelope
	rec.States = int64(cert.States)
	fmt.Fprintln(out, cert)
	if !cert.Stabilizing() {
		return fmt.Errorf("%s is not self-stabilizing under envelope %q", cert.Automaton, cert.Envelope)
	}
	return nil
}

// inductRun certifies the selected system's safety invariant by
// one-step induction over its candidate domain and prints the
// certificate. A counterexample to induction is an error, so the
// process exits non-zero — the negative direction CI asserts with a
// deliberately weakened conjunction lives in the bench battery.
func inductRun(cfg config, prof faults.Profile, o *obs.Obs, rec *ledger.Run, out io.Writer) error {
	if !prof.Zero() {
		return errors.New("-induct certifies the fault-free systems; channel -faults do not apply")
	}
	if cfg.symmetry || cfg.por {
		return errors.New("-symmetry/-por apply to -reach: induction walks the candidate domain, not the transition graph")
	}
	var (
		sys bench.InductSystem
		err error
	)
	switch cfg.system {
	case "arbiter1":
		sys, err = bench.InductArbiter1(cfg.nUsers)
	case "dijkstra":
		sys, err = bench.InductDijkstra(cfg.nUsers, cfg.nUsers)
	case "ring":
		sys, err = bench.InductRing(cfg.nUsers)
	case "mutex":
		sys, err = bench.InductBurns(explore.Options{Workers: cfg.explore.Workers, Limit: cfg.explore.Limit})
	case "lamport":
		n := cfg.nUsers
		if !cfg.usersSet {
			// The candidate domain grows ~10^5-fold per extra process
			// (the 3-process space is ~10^13 states); walk the
			// certified 2-process domain unless -users was explicit.
			n = 2
		}
		rec.Users = n
		sys, err = bench.InductLamport(n, 2, 1)
	default:
		return fmt.Errorf("-induct applies to arbiter1, dijkstra, ring, mutex, and lamport, not %q", cfg.system)
	}
	if err != nil {
		return err
	}
	if o != nil {
		ioa.SetObsDeep(sys.Auto, o)
	}
	cert, err := induct.Check(context.Background(), sys.Auto, sys.Dom, sys.Inv, induct.Options{Obs: o})
	if err != nil {
		return err
	}
	rec.Domain = cert.Domain
	rec.States = cert.DomainStates
	rec.Obligations = make([]ledger.Obligation, len(cert.Obligations))
	for i, ob := range cert.Obligations {
		rec.Obligations[i] = ledger.Obligation{Conjunct: ob.Conjunct, Discharged: ob.Discharged}
	}
	fmt.Fprintln(out, cert)
	if cert.CTI != nil {
		fmt.Fprintln(out, cert.CTI)
		rec.Detail = cert.CTI.String()
		return fmt.Errorf("%s is not inductive for %s over domain %q", cert.Invariant, cert.Automaton, cert.Domain)
	}
	return nil
}

// dispatch runs the selected mode: DOT export, reachability, or
// simulation.
func dispatch(cfg config, auto ioa.Automaton, o *obs.Obs, rec *ledger.Run, out io.Writer) error {
	ctx := context.Background()
	if cfg.dotOut {
		eng := explore.New(explore.Options{Workers: 1, Limit: 4096, Obs: o})
		return eng.WriteDOT(ctx, out, auto)
	}
	if cfg.reach {
		opts := cfg.explore
		opts.Obs = o
		// The external census refuses -por (no freshness oracle over
		// disk frontiers); Reach below honours it over the spilled set.
		if opts.Spill != nil && opts.Ample == nil {
			if dec, ok := auto.(interface {
				Decode([]byte) (ioa.State, error)
			}); ok {
				// Canonically decodable system: run the external census
				// — frontier and seen set both on disk, O(spill budget)
				// resident memory regardless of state count.
				opts.Decode = dec.Decode
				sum, cerr := explore.New(opts).Census(ctx, auto, nil, nil)
				if cerr != nil {
					if errors.Is(cerr, explore.ErrLimit) {
						fmt.Fprintf(out, "%s: truncated at state budget %d (pass a larger -limit)\n", auto.Name(), opts.Limit)
						return nil
					}
					return cerr
				}
				rec.States = sum.States
				fmt.Fprintf(out, "%s: %d reachable states (external census, depth %d)\n", auto.Name(), sum.States, sum.Depth)
				if sum.Deadlocks == 0 {
					fmt.Fprintln(out, "no quiescent states")
				} else {
					fmt.Fprintf(out, "%d quiescent states (nothing locally controlled enabled)\n", sum.Deadlocks)
				}
				return nil
			}
		}
		eng := explore.New(opts)
		states, err := eng.Reach(ctx, auto)
		truncated := false
		if err != nil {
			if !errors.Is(err, explore.ErrLimit) {
				return err
			}
			truncated = true
		}
		rec.States = int64(len(states))
		fmt.Fprintf(out, "%s: %d reachable states", auto.Name(), len(states))
		if truncated {
			fmt.Fprintf(out, " (truncated at state budget; pass a larger -limit)\n")
			return nil
		}
		fmt.Fprintln(out)
		dead, err := eng.Deadlocks(ctx, auto)
		if err != nil {
			return err
		}
		if len(dead) == 0 {
			fmt.Fprintln(out, "no quiescent states")
		} else {
			fmt.Fprintf(out, "%d quiescent states (nothing locally controlled enabled); first: %s\n",
				len(dead), dead[0].Key())
		}
		return nil
	}
	var p sim.Policy
	switch cfg.policy {
	case "rr":
		p = &sim.RoundRobin{}
	case "random":
		p = sim.NewRandom(cfg.seed)
	default:
		return fmt.Errorf("unknown policy %q", cfg.policy)
	}
	x, err := sim.RunObs(auto, p, cfg.steps, nil, o)
	if err != nil {
		return err
	}
	rec.States = int64(x.Len())
	if cfg.jsonOut {
		return writeJSON(out, x)
	}
	report(out, auto, x, cfg.trace)
	return nil
}

// workerRun joins a coordinator at -dist-join as one worker process of
// a sharded exploration. The worker builds the system locally — the
// cluster protocol ships canonical encodings, never concrete states —
// and owns the shard of the interned key space the coordinator's rank
// assignment gives it. A -spill-dir is made rank-unique with a private
// subdirectory, so several workers on one host never collide.
func workerRun(cfg config, prof faults.Profile, o *obs.Obs) error {
	spill := cfg.explore.Spill
	if spill != nil {
		if err := os.MkdirAll(spill.Dir, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(spill.Dir, "shard-")
		if err != nil {
			return err
		}
		sp := *spill
		sp.Dir = dir
		spill = &sp
	}
	var canon store.Canonicalizer
	if cfg.symmetry {
		c, err := systemCanonicalizer(cfg.system, cfg.nUsers)
		if err != nil {
			return err
		}
		canon = c
	}
	wcfg := cluster.Config{
		Addr:         cfg.distJoin,
		Build:        func() (ioa.Automaton, error) { return buildSystem(cfg, prof, o) },
		Limit:        int64(cfg.explore.Limit),
		Spill:        spill,
		Canon:        canon,
		CorruptShard: cfg.distCorrupt,
	}
	// cluster.Work retries refused dials itself (hand-started workers
	// race the coordinator's bind), so the exploration runs exactly once.
	return cluster.Work(context.Background(), wcfg)
}

// joinAddr renders a bound listener address as a dialable -dist-join
// target: an unspecified host (":0", "0.0.0.0", "::") becomes
// loopback, since that is where locally spawned workers must dial.
func joinAddr(a net.Addr) string {
	host, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return a.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// coordRun coordinates a sharded multi-process exploration: it listens
// on -dist-listen, waits for -dist-workers worker processes, drives the
// level barriers, and reports the cluster-wide census. With -dist-spawn
// the workers are forked from this binary with the system flags passed
// through; otherwise start them by hand with -dist-join.
func coordRun(cfg config, o *obs.Obs, rec *ledger.Run, out io.Writer) error {
	if !cfg.reach {
		return errors.New("-dist-listen requires -reach")
	}
	if cfg.por {
		return errors.New("-por does not apply to -dist-listen: ample sets need a global transition view")
	}
	// Bind before spawning so workers can join an ephemeral port
	// (-dist-listen :0): the join address comes from the bound
	// listener, not the flag.
	ln, err := net.Listen("tcp", cfg.distListen)
	if err != nil {
		return fmt.Errorf("dist: listen %s: %w", cfg.distListen, err)
	}
	join := joinAddr(ln.Addr())
	fmt.Fprintf(out, "coordinating on %s (%d workers)\n", join, cfg.distWorkers)
	var spawned []*exec.Cmd
	if cfg.distSpawn {
		args := []string{
			"-system", cfg.system,
			"-users", fmt.Sprint(cfg.nUsers),
			"-dist-join", join,
		}
		if cfg.system == "grid" {
			args = append(args, "-grid-base", fmt.Sprint(cfg.gridM), "-grid-digits", fmt.Sprint(cfg.gridK))
		}
		if cfg.explore.Limit != explore.DefaultLimit {
			args = append(args, "-limit", fmt.Sprint(cfg.explore.Limit))
		}
		if cfg.explore.Spill != nil {
			args = append(args,
				"-spill-dir", cfg.explore.Spill.Dir,
				"-spill-mem-mb", fmt.Sprint(cfg.explore.Spill.MemBudget>>20))
		}
		if cfg.symmetry {
			args = append(args, "-symmetry")
		}
		if cfg.faults != "" && cfg.faults != "none" {
			args = append(args, "-faults", cfg.faults, "-fault-seed", fmt.Sprint(cfg.faultSd))
		}
		for i := 0; i < cfg.distWorkers; i++ {
			cmd := exec.Command(os.Args[0], args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return fmt.Errorf("spawn worker %d: %w", i, err)
			}
			spawned = append(spawned, cmd)
		}
	}
	res, err := cluster.Coordinate(context.Background(), cluster.Config{
		Listener: ln,
		Procs:    cfg.distWorkers,
		Limit:    int64(cfg.explore.Limit),
		Obs:      o,
	})
	// A budget abort stops the workers with the coordinator's reason;
	// their non-zero exits are then the expected echo of the truncation.
	truncated := errors.Is(err, explore.ErrLimit)
	for i, cmd := range spawned {
		if werr := cmd.Wait(); werr != nil && !truncated {
			err = errors.Join(err, fmt.Errorf("worker %d: %w", i, werr))
		}
	}
	if truncated {
		fmt.Fprintf(out, "%s: truncated at state budget %d (pass a larger -limit)\n", cfg.system, cfg.explore.Limit)
		return nil
	}
	if err != nil {
		return err
	}
	rec.States = res.States
	rec.Detail = res.Verdict()
	fmt.Fprintf(out, "%s: %d reachable states across %d processes (depth %d, verdict %s)\n",
		cfg.system, res.States, res.Procs, res.Depth, res.Verdict())
	fmt.Fprint(out, "shard balance:")
	for _, n := range res.PerRank {
		fmt.Fprintf(out, " %d", n)
	}
	fmt.Fprintln(out)
	return nil
}

// writeFile writes one observability artifact through a buffered
// writer. Flush and close always run, and their errors are combined
// with the emit error, so a partial write (full disk, closed pipe) is
// reported instead of leaving a silently truncated artifact.
func writeFile(path string, emit func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = emit(bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// event is one step of a trace in the JSON export format.
type event struct {
	Step   int    `json:"step"`
	Action string `json:"action"`
	State  string `json:"state"`
}

// writeJSON emits the execution as a JSON array of events, preceded by
// the initial state, for consumption by external tooling.
func writeJSON(w io.Writer, x *ioa.Execution) error {
	events := make([]event, 0, x.Len()+1)
	events = append(events, event{Step: 0, Action: "", State: x.States[0].Key()})
	for i, act := range x.Acts {
		events = append(events, event{Step: i + 1, Action: string(act), State: x.States[i+1].Key()})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(events)
}

func buildSystem(cfg config, prof faults.Profile, o *obs.Obs) (ioa.Automaton, error) {
	name, nUsers, faultSeed := cfg.system, cfg.nUsers, cfg.faultSd
	switch name {
	case "arbiter3", "arbiter3r":
		// Handled below; every other system rejects fault injection.
	default:
		if !prof.Zero() {
			return nil, fmt.Errorf("-faults applies to arbiter3 and arbiter3r only, not %q", name)
		}
	}
	switch name {
	case "grid":
		m, k := cfg.gridM, cfg.gridK
		if m == 0 {
			m = 10
		}
		if k == 0 {
			k = 8
		}
		return grid.New(m, k)
	case "fig21":
		return figures.Fig21(), nil
	case "fig22":
		return figures.Fig22(), nil
	case "fig23c":
		return figures.Fig23C(), nil
	case "arbiter1":
		names := spec.DefaultUsers(nUsers)
		a1 := spec.New(names)
		comps := append([]ioa.Automaton{a1}, users.Automata(users.HeavyLoad(names))...)
		return ioa.Compose("arbiter1", comps...)
	case "ring":
		names := spec.DefaultUsers(nUsers)
		sys, err := ring.New(names)
		if err != nil {
			return nil, err
		}
		comps := append([]ioa.Automaton{sys.Arbiter}, users.Automata(users.HeavyLoad(names))...)
		return ioa.Compose("ring-closed", comps...)
	case "dijkstra":
		r, err := ring.NewDijkstra(nUsers, nUsers)
		if err != nil {
			return nil, err
		}
		return r.Auto, nil
	case "lamport":
		l, err := mutex.NewLamport(nUsers, 2, 1)
		if err != nil {
			return nil, err
		}
		return l.Auto, nil
	case "mutex":
		sys, err := mutex.New()
		if err != nil {
			return nil, err
		}
		var comps []ioa.Automaton
		comps = append(comps, sys.Mutex)
		for i := 0; i < 2; i++ {
			i := i
			d := ioa.NewDef("User" + string(rune('0'+i)))
			d.Start(ioa.KeyState("rem"))
			d.Output(mutex.Try(i), "u"+string(rune('0'+i)),
				func(s ioa.State) bool { return s.Key() == "rem" },
				func(ioa.State) ioa.State { return ioa.KeyState("trying") })
			d.Input(mutex.Crit(i), func(s ioa.State) ioa.State { return ioa.KeyState("crit") })
			d.Output(mutex.Exit(i), "u"+string(rune('0'+i)),
				func(s ioa.State) bool { return s.Key() == "crit" },
				func(ioa.State) ioa.State { return ioa.KeyState("exited") })
			d.Input(mutex.Rem(i), func(s ioa.State) ioa.State { return ioa.KeyState("rem") })
			comps = append(comps, d.MustBuild())
		}
		return ioa.Compose("mutex-closed", comps...)
	case "arbiter2", "arbiter3", "arbiter3r", "star":
		// star is the level-3 distributed arbiter over graph.Star:
		// all users on one process's neighbor circle, the maximally
		// symmetric level-3 topology (see reduce.StarRotation).
		var tr *graph.Tree
		var err error
		if name == "star" {
			tr, err = graph.Star(nUsers)
		} else {
			tr, err = graph.BinaryTree(nUsers)
		}
		if err != nil {
			return nil, err
		}
		names := treeUserNames(tr)
		var arb ioa.Automaton
		if name == "arbiter2" {
			holder := tr.NodesOf(graph.Arbiter)[0]
			a2, err := graphlevel.New(tr, tr.Neighbors(holder)[0], holder)
			if err != nil {
				return nil, err
			}
			arb, err = ioa.Rename(a2, graphlevel.F1(tr))
			if err != nil {
				return nil, err
			}
		} else {
			// A zero profile gets the plain reliable channels rather
			// than a zero-rate schedule: scheduled channels carry
			// per-channel sequence counters in their state, which makes
			// the -reach state space unbounded for no behavioral gain.
			var inj faults.Injection
			if !prof.Zero() {
				sched, err := faults.NewSchedule(faultSeed, prof)
				if err != nil {
					return nil, err
				}
				sched.Obs = o
				inj = faults.Injection{Sched: sched, Obs: o}
			}
			holder := tr.NodesOf(graph.Arbiter)[0]
			aug, err := graph.Augment(tr)
			if err != nil {
				return nil, err
			}
			var base ioa.Automaton
			var f2 *ioa.Mapping
			if name == "arbiter3r" {
				sys, err := dist.NewHardened(tr, holder, inj)
				if err != nil {
					return nil, err
				}
				base = sys.A3R
				f2, err = sys.F2(aug)
				if err != nil {
					return nil, err
				}
			} else {
				sys, err := dist.NewWithFaults(tr, holder, inj)
				if err != nil {
					return nil, err
				}
				base = sys.A3
				f2, err = sys.F2(aug)
				if err != nil {
					return nil, err
				}
			}
			a3x, err := ioa.Rename(base, f2)
			if err != nil {
				return nil, err
			}
			arb, err = ioa.Rename(a3x, graphlevel.F1(aug))
			if err != nil {
				return nil, err
			}
		}
		comps := append([]ioa.Automaton{arb}, users.Automata(users.HeavyLoad(names))...)
		return ioa.Compose(name, comps...)
	default:
		return nil, fmt.Errorf("unknown system %q (try fig21, fig22, fig23c, arbiter1, arbiter2, arbiter3, arbiter3r, star, ring, mutex, dijkstra, lamport, grid)", name)
	}
}

func treeUserNames(tr *graph.Tree) []string {
	ids := tr.NodesOf(graph.User)
	out := make([]string, len(ids))
	for i, u := range ids {
		out[i] = tr.Node(u).Name
	}
	return out
}

func report(out io.Writer, auto ioa.Automaton, x *ioa.Execution, trace bool) {
	fmt.Fprintf(out, "system %s: ran %d steps\n", auto.Name(), x.Len())
	if trace {
		for i, act := range x.Acts {
			fmt.Fprintf(out, "%4d  %s\n", i+1, act)
		}
	}
	if err := ioa.CheckFairWindow(x, 4*len(auto.Parts())); err != nil {
		fmt.Fprintf(out, "fairness: %v\n", err)
	} else {
		fmt.Fprintln(out, "fairness: every class served within the window")
	}
	counts := make(map[string]int)
	for _, act := range x.Acts {
		counts[act.Base()]++
	}
	fmt.Fprintln(out, "action counts:")
	for _, base := range []string{"request", "grant", "return"} {
		if counts[base] > 0 {
			fmt.Fprintf(out, "  %-8s %d\n", base, counts[base])
		}
	}
	perUser := make(map[string]int)
	for _, act := range x.Acts {
		if act.Base() == "grant" && len(act.Params()) == 1 {
			perUser[act.Params()[0]]++
		}
	}
	if len(perUser) > 0 {
		fmt.Fprintln(out, "grants per user:")
		for _, u := range sortedKeys(perUser) {
			fmt.Fprintf(out, "  %-6s %d\n", u, perUser[u])
		}
	}
	if x.Len() > 0 && len(perUser) == 0 && !trace {
		fmt.Fprintf(out, "last actions: %s\n", ioa.TraceString(x.Acts[max(0, len(x.Acts)-10):]))
	}
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	return keys
}
