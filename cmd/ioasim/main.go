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
//	       [-workers n] [-limit n] [-symmetry]
//	       [-spill-dir dir] [-spill-mem-mb n]
//	       [-dist-listen host:port -dist-workers n [-dist-spawn]]
//	       [-dist-join host:port [-dist-corrupt]]
//	       [-obs-addr host:port] [-trace-out file] [-metrics-out file]
//	       [-ledger-out file] [-progress] [-stall-after d]
//
// Two tables decide what an invocation means. The catalogue
// (bench.Systems) says which systems exist and which of them carry a
// symmetry, an inductive conjunction, a stabilization case or
// fault-injectable channels; the mode table (modes.go) says which flag
// selects which entry point and which of -faults, -symmetry and
// -spill-dir it takes. -reach, -dot, -stabilize and
// -induct each select a mode — give at most one — and `ioasim -h` and
// every rejection list the systems a flag applies to. README.md walks
// through each mode.
//
// -reach explores the reachable state space instead of simulating,
// reporting the state count and the quiescent states, through the
// knobs of explore.Flags: -workers (0 = GOMAXPROCS, 1 = sequential;
// the per-depth key-sorted order is identical at any count) and -limit,
// which arbiterbench shares, and -spill-dir/-spill-mem-mb, which
// back the seen set with the disk-spilling store — for a system with a
// canonical decodable encoding (grid, the m^k-state scale harness) the
// external census, frontier and seen set both on disk.
//
// -dist-listen starts a coordinator that shards the interned key space
// across -dist-workers OS processes with level-synchronized barriers;
// counts and verdicts are bit-identical at any process count.
// -dist-spawn forks the workers from this binary; otherwise start each
// by hand with -dist-join host:port and the same -system flags. A
// corrupted shard assignment (-dist-corrupt, the CI must-fail probe)
// aborts the cluster rather than double-counting.
//
// -induct certifies the system's safety invariant by one-step
// induction over a streamed candidate domain, in O(1) resident memory;
// lamport's domain grows ~10^5-fold per process, so lamport -induct
// walks the certified 2-process domain (518,400 states) unless -users
// is explicit. -stabilize certifies closure of the legitimate set and
// convergence from a corruption envelope: dijkstra passes, ring (a
// lost token never regenerates) must FAIL. Both print a certificate,
// and the exit status is the verdict.
//
// -faults injects seeded channel faults into the distributed arbiter:
// arbiter3 runs the plain A₃ over the faulty channels (and visibly
// starves or deadlocks under loss), arbiter3r the retry-hardened A₃ʳ
// whose alternating-bit links mask drop and dup (delay reorders, which
// neither tolerates). Fault decisions are a pure function of
// (-fault-seed, channel, message sequence number).
//
// Observability: -trace-out writes a Chrome trace_event file,
// -metrics-out a JSON snapshot of every counter and histogram,
// -obs-addr serves /debug/vars, /debug/pprof/, /debug/healthz and —
// with a ledger — /debug/progress[/html]; -ledger-out appends a
// schema-versioned JSONL run ledger (internal/ledger): one provenance
// record per run plus progress snapshots, which -progress echoes to
// stderr, and a stall watchdog journals a goroutine dump when no
// progress lands within -stall-after (0 disables). With none of these
// set the layer is off and costs nothing.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/testseed"
)

// config carries every flag; run is pure in (config, out), so tests
// drive the whole CLI without exec'ing the binary.
type config struct {
	system, policy, faults           string
	steps, nUsers, gridM, gridK      int
	seed, faultSd                    int64
	trace, jsonOut                   bool
	dotOut, reach, stabilize, induct bool // the mode flags, with distJoin and distListen
	symmetry                         bool
	explore                          explore.Options

	distListen, distJoin   string
	distWorkers            int
	distSpawn, distCorrupt bool

	obsAddr, traceOut, metricsOut, ledgerOut string
	progress                                 bool
	stallAfter                               time.Duration

	// usersSet records whether -users was given explicitly
	// (bench.Params.UsersSet).
	usersSet bool
	// flags holds the explicitly-set command-line flags, journaled as
	// run provenance; nil when run is driven directly from tests.
	flags map[string]string
}

// systemsWith lists, for a flag's help text, the catalogue systems has
// accepts.
func systemsWith(has func(bench.System) bool) string {
	return strings.Join(bench.SystemNames(has), "/")
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ioasim: ")
	var cfg config
	flag.StringVar(&cfg.system, "system", "arbiter3", "system to simulate: "+systemsWith(nil))
	flag.IntVar(&cfg.steps, "steps", 100, "maximum steps")
	flag.StringVar(&cfg.policy, "policy", "rr", "scheduling policy: rr or random")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the random policy")
	flag.IntVar(&cfg.nUsers, "users", 3, "number of users (arbiter systems)")
	flag.IntVar(&cfg.gridM, "grid-base", 10, "digit base m of the grid scale harness (m^k states)")
	flag.IntVar(&cfg.gridK, "grid-digits", 8, "digit count k of the grid scale harness")
	flag.BoolVar(&cfg.trace, "trace", false, "print the full step trace")
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit the trace as JSON events on stdout")
	flag.BoolVar(&cfg.dotOut, "dot", false, "emit the reachable state graph in Graphviz DOT format and exit")
	flag.StringVar(&cfg.faults, "faults", "none", "channel fault profile, e.g. drop=0.1,dup=0.05,delay=3 ("+systemsWith(hasFaults)+")")
	flag.Int64Var(&cfg.faultSd, "fault-seed", 1, "seed for the deterministic fault schedule")
	flag.BoolVar(&cfg.reach, "reach", false, "explore the reachable state space instead of simulating")
	flag.BoolVar(&cfg.stabilize, "stabilize", false, "certify self-stabilization instead of simulating ("+systemsWith(hasStabilize)+"); exits non-zero when not stabilizing")
	flag.BoolVar(&cfg.induct, "induct", false, "certify the safety invariant by one-step induction ("+systemsWith(hasInduct)+"); exits non-zero on a CTI")
	var ex explore.Flags
	ex.Bind(flag.CommandLine)
	ex.BindSpill(flag.CommandLine)
	flag.BoolVar(&cfg.symmetry, "symmetry", false, "quotient the state space by the system's symmetry group (systems with a registered canonicalizer)")
	flag.StringVar(&cfg.distListen, "dist-listen", "", "coordinate a sharded multi-process exploration, listening on this host:port")
	flag.IntVar(&cfg.distWorkers, "dist-workers", 2, "worker process count for -dist-listen")
	flag.StringVar(&cfg.distJoin, "dist-join", "", "join a coordinator at this host:port as a worker process")
	flag.BoolVar(&cfg.distSpawn, "dist-spawn", false, "with -dist-listen: spawn the worker processes from this binary")
	flag.BoolVar(&cfg.distCorrupt, "dist-corrupt", false, "deliberately mis-shard this worker's candidates (CI must-fail probe)")
	flag.StringVar(&cfg.obsAddr, "obs-addr", "", "serve live expvar + pprof debug endpoints on this address (e.g. :6060)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write a Chrome trace_event JSON file to this path")
	flag.StringVar(&cfg.metricsOut, "metrics-out", "", "write a metrics snapshot JSON file to this path")
	flag.StringVar(&cfg.ledgerOut, "ledger-out", "", "append a JSONL run ledger (provenance record + progress snapshots) to this path")
	flag.BoolVar(&cfg.progress, "progress", false, "echo live progress snapshots to stderr")
	flag.DurationVar(&cfg.stallAfter, "stall-after", 30*time.Second, "with -ledger-out/-progress: journal a stall dump when no progress lands within this window (0 disables)")
	flag.Parse()
	cfg.explore = ex.Options()
	cfg.flags = make(map[string]string)
	flag.Visit(func(f *flag.Flag) { cfg.flags[f.Name] = f.Value.String() })
	_, cfg.usersSet = cfg.flags["users"]
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

	m := selectMode(&cfg)
	rec := &ledger.Run{
		Tool:     "ioasim",
		Mode:     m.name,
		System:   cfg.system,
		Seed:     cfg.seed,
		Users:    cfg.nUsers,
		Workers:  cfg.explore.Workers,
		Limit:    cfg.explore.Limit,
		Symmetry: cfg.symmetry,
		Flags:    cfg.flags,
	}
	started := testseed.Now()
	err = (&invocation{cfg: cfg, o: o, rec: rec, out: out}).invoke(m, prof)

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

// An invocation is what a mode's run function works on: the flags, the
// catalogue entry they name, and what -faults and -symmetry resolved
// to once the mode table admitted them.
type invocation struct {
	cfg   config
	sys   bench.System
	par   bench.Params
	canon store.Canonicalizer // nil without -symmetry
	o     *obs.Obs
	rec   *ledger.Run
	out   io.Writer
}

// invoke looks the system up, holds the flags against the mode's row
// and the system's hooks, resolves -faults and -symmetry, and runs the
// mode.
func (inv *invocation) invoke(m *mode, prof faults.Profile) (err error) {
	cfg := &inv.cfg
	if inv.sys, err = bench.FindSystem(cfg.system); err != nil {
		return err
	}
	if err := m.admit(cfg, inv.sys, prof); err != nil {
		return err
	}
	inv.par = bench.Params{Users: cfg.nUsers, UsersSet: cfg.usersSet, GridBase: cfg.gridM, GridDigits: cfg.gridK}
	if !prof.Zero() {
		sched, err := faults.NewSchedule(cfg.faultSd, prof)
		if err != nil {
			return err
		}
		sched.Obs = inv.o
		inv.par.Inject = faults.Injection{Sched: sched, Obs: inv.o}
	}
	if cfg.symmetry {
		if inv.canon, err = m.canon(inv.sys)(cfg.nUsers); err != nil {
			return err
		}
	}
	return m.run(inv)
}

// build builds the system and hangs the observability layer on it.
func (inv *invocation) build() (ioa.Automaton, error) {
	auto, err := inv.sys.Build(inv.par)
	if err == nil && inv.o != nil {
		ioa.SetObsDeep(auto, inv.o)
	}
	return auto, err
}

// engine is the exploration configuration a certifier's hook gets.
func (inv *invocation) engine() explore.Options {
	return explore.Options{Workers: inv.cfg.explore.Workers, Limit: inv.cfg.explore.Limit}
}
