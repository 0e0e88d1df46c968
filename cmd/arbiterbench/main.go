// Command arbiterbench regenerates the quantitative results of §3.4 of
// Lynch & Tuttle 1987: the light-load (Theorem 50) and heavy-load
// (Theorem 52) response-time bounds of Schönhage's arbiter, the
// combined-message ablation, and the comparison against the [LF81]
// round-robin and tournament arbiters.
//
// It also runs the registered certification sweeps (bench.Sweeps): one
// `-sweep <name>` flag selects a sweep by registry name and
// `-sweep-out <file>` writes its rows as the canonical JSON artifact
// (BENCH_<name>.json). Registered sweeps: stabilize (E19), reduction
// (E20) and induct (E21); -stabilize-sizes sizes the first. Timing the
// exploration engines is the repository benchmark's job
// (`go run ./benchmark`, BENCHMARK.json), not this command's.
// -obs-addr serves live expvar and pprof endpoints for the duration of
// any run.
//
// The exploration knobs (-workers, -limit, -spill-dir, -dist-*) are
// the shared set registered by explore.BindFlags —
// identical flags and defaults in ioasim (the -dist-* cluster flags
// act only in ioasim, which hosts the coordinator/worker modes).
// -workers also sizes the chaos sweep's per-state safety pool.
//
// Usage:
//
//	arbiterbench [-b bound] [-seed n] [-max n] [-quick]
//	             [-workers n] [-limit n]
//	             [-sweep stabilize|reduction|induct] [-sweep-out file]
//	             [-stabilize-sizes n]
//	             [-chaos] [-recover-within k]
//	             [-obs-addr host:port] [-ledger-out file]
//
// The induct sweep (E21) certifies safety invariants by
// one-step induction over complete candidate domains — the closed
// level-1 arbiter, Dijkstra's token ring, the LeLann ring, Burns'
// mutex over a reachable domain, and Lamport's bounded-clock mutex —
// and prices each certificate against a full reachability run of the
// same system. The headline rows walk multi-million-state domains
// (Dijkstra 8^8 = 16.7M, Lamport 9.1M at channel capacity 2) in O(1)
// resident memory; -quick drops them (BENCH_induct.json).
//
// The reduction sweep (E20) measures symmetry quotienting against
// unreduced exploration on the closed arbiter systems with a sound
// symmetry (spec arbiter under Sₙ, star level-3 under its free Zₙ
// rotation group), cross-checking the mutual-exclusion verdict in
// both modes (BENCH_reduction.json). With -quick the sweep shrinks to
// smoke sizes.
//
// The stabilize sweep (E19) certifies self-stabilization:
// Dijkstra's K-state token ring over ring sizes up to -stabilize-sizes
// (full corruption envelope at K=n, a single-corruption spot envelope,
// and the K=n-2 boundary where stabilization provably fails), plus the
// LeLann ring under crash corruption as the negative control. Rows
// carry the certifier's closure/convergence verdicts and the measured
// worst-case rounds-to-legitimacy (BENCH_stabilize.json).
//
// The -chaos flag runs only the chaos sweep, with the recovery
// criterion set by -recover-within (default 60): each cell reports its
// longest safety outage and service gap, and passes when both are
// within the window. A fault-free cell failing recovery exits
// non-zero — the CI smoke gate. -recover-within also applies to the
// chaos sweep at the end of the default full run.
//
// -ledger-out appends one schema-versioned provenance record per
// invocation (mode, seed, flags, wall time, verdict) to a JSONL run
// ledger shared with ioasim; see internal/ledger.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/graph"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/testseed"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("arbiterbench: ")
	var (
		b         = flag.Float64("b", 1, "per-step time bound b")
		seed      = flag.Int64("seed", 1, "scheduler tie-break seed")
		maxN      = flag.Int("max", 64, "largest user count in sweeps")
		quick     = flag.Bool("quick", false, "small sweep for smoke testing")
		ex        = explore.BindFlags(flag.CommandLine)
		sweepName = flag.String("sweep", "", "run one registered sweep by name and exit (see bench.Sweeps)")
		sweepOut  = flag.String("sweep-out", "", "write the -sweep rows as JSON to this file")
		stabSizes = flag.Int("stabilize-sizes", 4, "largest Dijkstra ring size in the stabilize sweep")
		chaosOnly = flag.Bool("chaos", false, "run only the chaos sweep; exit non-zero if a fault-free cell fails recovery")
		recoverIn = flag.Int("recover-within", 60, "chaos recovery window k in states/steps (0 disables the criterion)")
		obsAddr   = flag.String("obs-addr", "", "serve live expvar + pprof debug endpoints on this address (e.g. :6060)")
		ledgerOut = flag.String("ledger-out", "", "append a provenance record per run to this JSONL journal")
	)
	flag.Parse()

	var led *ledger.Ledger
	if *ledgerOut != "" {
		f, err := os.OpenFile(*ledgerOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("ledger: %v", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Printf("ledger: %v", err)
			}
		}()
		led = ledger.New(f, ledger.Options{})
	}
	started := testseed.Now()
	// record journals one provenance record; nil-safe on the ledger so
	// every mode branch can call it unconditionally.
	record := func(mode string, states int64, verdict, detail string, artifacts ...string) {
		if led == nil {
			return
		}
		flags := make(map[string]string)
		flag.Visit(func(f *flag.Flag) { flags[f.Name] = f.Value.String() })
		r := ledger.Run{
			Tool: "arbiterbench", Mode: mode, Seed: *seed,
			Workers: ex.Workers(), Limit: ex.Limit(), Flags: flags,
			WallNS: testseed.Now().Sub(started).Nanoseconds(),
			States: states, Verdict: verdict, Detail: detail,
		}
		for _, a := range artifacts {
			if a != "" {
				r.Artifacts = append(r.Artifacts, a)
			}
		}
		if err := led.Record(r); err != nil {
			log.Printf("ledger: %v", err)
		}
	}

	if *obsAddr != "" {
		addr, stop, err := obs.Serve(*obsAddr)
		if err != nil {
			log.Fatalf("obs: %v", err)
		}
		defer func() {
			if err := stop(); err != nil {
				log.Printf("obs: %v", err)
			}
		}()
		fmt.Printf("obs: serving http://%s/debug/vars and /debug/pprof/\n", addr)
	}

	if name, out := *sweepName, *sweepOut; name != "" {
		sw, err := bench.FindSweep(name)
		if err != nil {
			log.Fatal(err)
		}
		rows, n, err := sw.Run(bench.SweepConfig{
			Sizes: *stabSizes, Workers: ex.Workers(), Limit: ex.Limit(), Quick: *quick,
		})
		if err != nil {
			record("sweep-"+name, 0, "fail", err.Error())
			log.Fatalf("%s sweep: %v", name, err)
		}
		if out != "" {
			f, err := os.Create(out)
			if err != nil {
				log.Fatalf("%s out: %v", name, err)
			}
			if err := bench.WriteSweepJSON(f, rows); err != nil {
				log.Fatalf("%s out: %v", name, err)
			}
			if err := f.Close(); err != nil {
				log.Fatalf("%s out: %v", name, err)
			}
		}
		record("sweep-"+name, int64(n), "ok", fmt.Sprintf("%d rows", n), out)
		return
	}

	if *chaosOnly {
		if err := runChaos(ex.Workers(), *quick, *recoverIn, true); err != nil {
			record("chaos", 0, "fail", err.Error())
			log.Fatalf("chaos sweep: %v", err)
		}
		record("chaos", 0, "ok", "")
		return
	}

	sizes := sweep(*maxN)
	if *quick {
		sizes = sweep(8)
	}

	rows, err := bench.Theorem50(sizes, *b, graph.BinaryTree, *seed)
	if err != nil {
		log.Fatalf("theorem 50 (binary): %v", err)
	}
	bench.PrintRows(os.Stdout, "Theorem 50 — light load, binary trees (bound 2bd)", rows)

	lineSizes := sizes
	rows, err = bench.Theorem50(lineSizes, *b, func(n int) (*graph.Tree, error) {
		return graph.Line(n)
	}, *seed)
	if err != nil {
		log.Fatalf("theorem 50 (line): %v", err)
	}
	bench.PrintRows(os.Stdout, "Theorem 50 — light load, line graphs (bound 2bd)", rows)

	rows, err = bench.Theorem52(sizes, *b, false, *seed)
	if err != nil {
		log.Fatalf("theorem 52: %v", err)
	}
	bench.PrintRows(os.Stdout, "Theorem 52 — heavy load, binary trees (bound 3be−b)", rows)

	rows, err = bench.Theorem52(sizes, *b, true, *seed)
	if err != nil {
		log.Fatalf("combined messages: %v", err)
	}
	bench.PrintRows(os.Stdout, "§3.4 remark — combined grant+request (bound 2be)", rows)

	cmp, err := bench.Comparison(sizes, *b, *seed)
	if err != nil {
		log.Fatalf("comparison: %v", err)
	}
	bench.PrintComparison(os.Stdout, cmp)

	distSizes := sizes
	if len(distSizes) > 4 {
		distSizes = distSizes[:4] // the A3 state space is the costly one
	}
	dvg, err := bench.DistVsGraph(distSizes, *b, *seed)
	if err != nil {
		log.Fatalf("dist vs graph: %v", err)
	}
	title := "Cross-level check — heavy-load max response at A2 (over G) vs A3 (bound 3b·e(𝒢)−b)"
	fmt.Println(title)
	fmt.Println(strings.Repeat("-", len(title)))
	fmt.Printf("%4s %6s %6s %10s %10s %10s %s\n", "n", "e(G)", "e(𝒢)", "A2 max", "A3 max", "bound", "ok")
	for _, r := range dvg {
		fmt.Printf("%4d %6d %6d %10.1f %10.1f %10.1f %t\n",
			r.N, r.EG, r.EAug, r.A2Max, r.A3Max, r.BoundAug, r.Within)
	}
	fmt.Println()

	if err := runChaos(ex.Workers(), *quick, *recoverIn, false); err != nil {
		log.Fatalf("chaos sweep: %v", err)
	}

	record("full", 0, "ok", "")
	fmt.Println("done")
}

// runChaos runs the chaos sweep over the Figure 3.2 tree with the
// recovery criterion enabled. With gate set, a fault-free cell that
// fails to recover within the window is an error — the CI smoke
// contract: retry-hardened A₃ʳ without injected faults must never
// exceed the outage or service-gap budget.
func runChaos(workers int, quick bool, recoverWithin int, gate bool) error {
	steps := 4000
	seeds := []int64{1, 2, 5}
	if quick {
		steps = 2000
		seeds = seeds[:1]
	}
	tr, err := graph.Figure32()
	if err != nil {
		return fmt.Errorf("figure 3.2: %v", err)
	}
	rows, err := bench.Chaos(bench.ChaosConfig{
		Tree:          tr,
		Holder:        0,
		Profiles:      bench.DefaultChaosProfiles(),
		Seeds:         seeds,
		Steps:         steps,
		Workers:       workers,
		RecoverWithin: recoverWithin,
	})
	if err != nil {
		return err
	}
	bench.PrintChaos(os.Stdout, rows)
	if gate && recoverWithin > 0 {
		for _, r := range rows {
			if r.Profile.Zero() && !r.Recovered {
				return fmt.Errorf("fault-free cell %s seed %d (hardened=%t) failed recovery: outage %d, gap %d, window %d",
					r.Profile, r.Seed, r.Hardened, r.MaxOutage, r.MaxServiceGap, recoverWithin)
			}
		}
	}
	return nil
}

// sweep yields powers of two from 2 up to max.
func sweep(maxN int) []int {
	var out []int
	for n := 2; n <= maxN; n *= 2 {
		out = append(out, n)
	}
	return out
}
