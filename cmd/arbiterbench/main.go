// Command arbiterbench runs the registered sweeps (bench.Sweeps): every
// table of the repository's quantitative evidence is one registry
// entry with its columns, its row condition and its committed artifact
// BENCH_<name>.json.
//
// Usage:
//
//	arbiterbench [-sweep name [-sweep-out file]] [-quick]
//	             [-b bound] [-seed n] [-max n] [-recover-within k]
//	             [-stabilize-sizes n] [-limit n]
//	             [-obs-addr host:port] [-ledger-out file]
//
// The exact sweeps time nothing, so equal flags give equal bytes:
//
//	theorem50   Theorem 50, light load ≤ 2bd: binary trees, lines (E1)
//	theorem52   Theorem 52, heavy load ≤ 3be−b; combined messages ≤ 2be (E2, E3)
//	comparison  §3.4: Schönhage vs round-robin, tournament, token ring (E4)
//	levels      heavy-load response at A₂ over G vs at A₃ (E13)
//	chaos       fault profile × seed × {A₃, A₃ʳ} vs surviving properties (E14)
//
// The timed ones price a certificate against a reachability run:
//
//	stabilize   self-stabilization, rings up to -stabilize-sizes (E19)
//	reduction   symmetry quotient vs unreduced exploration (E20)
//	induct      one-step induction over complete candidate domains (E21)
//
// Without -sweep the exact sweeps run, in that order. A sweep whose rows
// fail their condition (a response over its bound, a fault-free chaos
// cell outside -recover-within, a lost negative control) prints its
// table and exits non-zero. -ledger-out appends one provenance record
// per invocation to a JSONL journal shared with ioasim (internal/ledger).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/testseed"
)

// config holds every flag of one invocation; tests build it directly.
type config struct {
	sweep              bench.SweepConfig
	name, out          string // -sweep, -sweep-out
	obsAddr, ledgerOut string
	flags              map[string]string // the flags set explicitly
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("arbiterbench: ")
	var cfg config
	var ex explore.Flags
	flag.Float64Var(&cfg.sweep.B, "b", 1, "per-step time bound b")
	flag.Int64Var(&cfg.sweep.Seed, "seed", 1, "scheduler tie-break seed")
	flag.IntVar(&cfg.sweep.Max, "max", 64, "largest user count in sweeps")
	flag.BoolVar(&cfg.sweep.Quick, "quick", false, "small sweep for smoke testing")
	ex.Bind(flag.CommandLine)
	flag.StringVar(&cfg.name, "sweep", "", "run this registered sweep only (default: every exact one; see bench.Sweeps)")
	flag.StringVar(&cfg.out, "sweep-out", "", "write the -sweep rows as JSON to this file")
	flag.IntVar(&cfg.sweep.Sizes, "stabilize-sizes", 4, "largest Dijkstra ring size in the stabilize sweep")
	flag.IntVar(&cfg.sweep.RecoverWithin, "recover-within", 60, "chaos recovery window k in states/steps (0 disables the criterion)")
	flag.StringVar(&cfg.obsAddr, "obs-addr", "", "serve live expvar + pprof debug endpoints on this address (e.g. :6060)")
	flag.StringVar(&cfg.ledgerOut, "ledger-out", "", "append a provenance record per run to this JSONL journal")
	flag.Parse()
	cfg.sweep.Limit = ex.Limit
	cfg.flags = make(map[string]string)
	flag.Visit(func(f *flag.Flag) { cfg.flags[f.Name] = f.Value.String() })
	if err := run(cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes one invocation, printing tables to out. Whatever fails
// after the ledger file opened — an unknown sweep, a row condition, an
// artifact that cannot be written — is journaled as the run's one
// record before the file closes and the debug server stops.
func run(cfg config, out io.Writer) (err error) {
	rec := ledger.Run{
		Tool: "arbiterbench", Mode: "full", Seed: cfg.sweep.Seed,
		Limit: cfg.sweep.Limit, Flags: cfg.flags,
	}
	if cfg.name != "" {
		rec.Mode = "sweep-" + cfg.name
	}
	started := testseed.Now()
	if cfg.ledgerOut != "" {
		f, openErr := os.OpenFile(cfg.ledgerOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if openErr != nil {
			return fmt.Errorf("ledger: %w", openErr)
		}
		defer func() {
			rec.WallNS = testseed.Now().Sub(started).Nanoseconds()
			rec.Verdict, rec.Detail = "ok", fmt.Sprintf("%d rows", rec.States)
			if err != nil {
				rec.Verdict, rec.Detail = "fail", err.Error()
			} else if cfg.out != "" {
				rec.Artifacts = []string{cfg.out}
			}
			err = errors.Join(err, ledger.New(f, ledger.Options{}).Record(rec), f.Close())
		}()
	}
	if cfg.obsAddr != "" {
		addr, stop, serveErr := obs.Serve(cfg.obsAddr)
		if serveErr != nil {
			return serveErr
		}
		defer func() { err = errors.Join(err, stop()) }()
		fmt.Fprintf(out, "obs: serving http://%s/debug/vars and /debug/pprof/\n", addr)
	}
	rec.States, err = runSweeps(cfg, out)
	return err
}

// runSweeps runs the sweep -sweep names, or every exact one in registry
// order, and returns how many rows they produced.
func runSweeps(cfg config, out io.Writer) (rows int64, err error) {
	selected := bench.Sweeps()
	if cfg.name != "" {
		sw, err := bench.FindSweep(cfg.name)
		if err != nil {
			return 0, err
		}
		selected = []bench.Sweep{sw}
	} else if cfg.out != "" {
		return 0, errors.New("-sweep-out needs -sweep <name>: one file holds one sweep's rows")
	}
	cfg.sweep.Out = out
	for _, sw := range selected {
		if cfg.name == "" && !sw.Exact {
			continue
		}
		got, n, err := sw.Run(cfg.sweep)
		if err != nil {
			return rows, err
		}
		rows += int64(n)
		if cfg.out == "" {
			continue
		}
		f, err := os.Create(cfg.out)
		if err != nil {
			return rows, fmt.Errorf("%s out: %w", sw.Name, err)
		}
		if err := errors.Join(bench.WriteSweepJSON(f, got), f.Close()); err != nil {
			return rows, fmt.Errorf("%s out: %w", sw.Name, err)
		}
	}
	return rows, nil
}
