package explore

// The shared flag-to-Options builder for the CLIs. ioasim and
// arbiterbench both expose exploration knobs; before PR 5 each parsed
// its own copies and the two binaries drifted (different defaults,
// different help strings). BindFlags registers one canonical set of
// flags on a FlagSet and Flags.Options resolves them into the Options
// every Engine consumes.

import (
	"flag"

	"repro/internal/store"
)

// Flags holds the parsed exploration flag values registered by
// BindFlags, pending resolution into Options.
type Flags struct {
	workers    *int
	limit      *int
	symmetry   *bool
	spillDir   *string
	spillMemMB *int

	distListen  *string
	distWorkers *int
	distJoin    *string
	distSpawn   *bool
	distCorrupt *bool
}

// BindFlags registers the shared exploration flags (-workers, -limit,
// the -spill-* external-memory knobs, and the -dist-* cluster knobs) on
// fs and returns the handle that resolves them after fs.Parse.
func BindFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		workers:    fs.Int("workers", 0, "exploration worker goroutines (0 = GOMAXPROCS, 1 = sequential)"),
		limit:      fs.Int("limit", DefaultLimit, "exploration state budget"),
		symmetry:   fs.Bool("symmetry", false, "quotient the state space by the system's symmetry group (systems with a registered canonicalizer)"),
		spillDir:   fs.String("spill-dir", "", "spill the seen set to delta-encoded runs under this directory when RAM budget is exceeded"),
		spillMemMB: fs.Int("spill-mem-mb", 512, "in-RAM budget in MiB before the seen set spills (with -spill-dir)"),

		distListen:  fs.String("dist-listen", "", "coordinate a sharded multi-process exploration, listening on this host:port"),
		distWorkers: fs.Int("dist-workers", 2, "worker process count for -dist-listen"),
		distJoin:    fs.String("dist-join", "", "join a coordinator at this host:port as a worker process"),
		distSpawn:   fs.Bool("dist-spawn", false, "with -dist-listen: spawn the worker processes from this binary"),
		distCorrupt: fs.Bool("dist-corrupt", false, "deliberately mis-shard this worker's candidates (CI must-fail probe)"),
	}
}

// Options resolves the parsed flags into engine Options; the caller
// attaches the run's observability handle (Options.Obs) where it builds
// one.
func (f *Flags) Options() Options {
	return Options{
		Workers: *f.workers,
		Limit:   *f.limit,
		Spill:   f.SpillOptions(),
	}
}

// Workers returns the parsed worker count (for CLI paths that need the
// raw value, e.g. bench sweeps).
func (f *Flags) Workers() int { return *f.workers }

// Limit returns the parsed state budget.
func (f *Flags) Limit() int { return *f.limit }

// Symmetry reports whether -symmetry was requested. The canonicalizer
// itself is system-specific, so the CLI resolves it and fills
// Options.Canon (erroring on systems with no registered symmetry).
func (f *Flags) Symmetry() bool { return *f.symmetry }

// SpillOptions resolves the -spill-* flags into store.SpillOptions,
// or nil when -spill-dir was not given (pure in-RAM exploration).
func (f *Flags) SpillOptions() *store.SpillOptions {
	if *f.spillDir == "" {
		return nil
	}
	return &store.SpillOptions{
		Dir:       *f.spillDir,
		MemBudget: int64(*f.spillMemMB) << 20,
	}
}

// DistListen returns the coordinator listen address, or "" when this
// process is not coordinating.
func (f *Flags) DistListen() string { return *f.distListen }

// DistWorkers returns the worker process count for a coordinator.
func (f *Flags) DistWorkers() int { return *f.distWorkers }

// DistJoin returns the coordinator address to join as a worker, or "".
func (f *Flags) DistJoin() string { return *f.distJoin }

// DistSpawn reports whether the coordinator should self-spawn its
// worker processes.
func (f *Flags) DistSpawn() bool { return *f.distSpawn }

// DistCorrupt reports whether this worker should deliberately route
// candidates to the wrong shard — the CI must-fail probe for the
// cluster's shard-assignment verification.
func (f *Flags) DistCorrupt() bool { return *f.distCorrupt }
