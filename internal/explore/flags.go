package explore

// The shared flag-to-Options builder for the CLIs: ioasim and
// arbiterbench register the exploration knobs they share from here, so
// that defaults and help strings cannot drift between the binaries, and
// Flags.Options resolves them into the Options every Engine consumes.

import (
	"flag"

	"repro/internal/store"
)

// Flags holds the exploration flag values, filled by fs.Parse once
// Bind (and, for a CLI that explores out of core, BindSpill) has
// registered them.
type Flags struct {
	Workers    int
	Limit      int
	SpillDir   string
	SpillMemMB int
}

// Bind registers -workers and -limit on fs: the knobs of every CLI
// that builds an engine.
func (f *Flags) Bind(fs *flag.FlagSet) {
	fs.IntVar(&f.Workers, "workers", 0, "goroutines a possibilities-mapping check may use (0 = GOMAXPROCS); exploration is sequential at any count")
	fs.IntVar(&f.Limit, "limit", DefaultLimit, "exploration state budget")
}

// BindSpill registers the -spill-* external-memory knobs on fs.
func (f *Flags) BindSpill(fs *flag.FlagSet) {
	fs.StringVar(&f.SpillDir, "spill-dir", "", "spill the seen set to delta-encoded runs under this directory when RAM budget is exceeded")
	fs.IntVar(&f.SpillMemMB, "spill-mem-mb", 512, "in-RAM budget in MiB before the seen set spills (with -spill-dir)")
}

// Options resolves the parsed flags into engine Options; the caller
// attaches the run's observability handle (Options.Obs) where it builds
// one.
func (f *Flags) Options() Options {
	return Options{
		Workers: f.Workers,
		Limit:   f.Limit,
		Spill:   f.SpillOptions(),
	}
}

// SpillOptions resolves the -spill-* flags into store.SpillOptions,
// or nil when -spill-dir was not given (pure in-RAM exploration).
func (f *Flags) SpillOptions() *store.SpillOptions {
	if f.SpillDir == "" {
		return nil
	}
	return &store.SpillOptions{
		Dir:       f.SpillDir,
		MemBudget: int64(f.SpillMemMB) << 20,
	}
}
