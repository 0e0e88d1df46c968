// Command ioalint runs the repository's static analyzer suite
// (internal/lint): six stdlib-only analyzers that enforce the IOA
// model's semantic contracts before anything executes — nondet,
// purestep, invpure, partition, lockcopy, and errflow.
//
// Usage:
//
//	ioalint [-json] [-list] [-enable a,b] [-disable c] [patterns...]
//
// Patterns are go package patterns (default "./..."), resolved by
// `go list` in the current directory; "..." skips testdata
// directories, but one may be named explicitly, which is how CI
// proves the suite still fails on seeded violations.
//
// Exit codes: 0 — no diagnostics; 1 — diagnostics reported; 2 — usage
// or load error (an unknown analyzer, or a package go list or the type
// checker rejects, reported at the compiler's file:line).
//
// Diagnostics print as file:line:col: message [analyzer]; with -json
// they are emitted as a JSON array of objects with analyzer, file,
// line, col, and message fields. A site can be suppressed with
// "//lint:ignore <analyzer>[,<analyzer>|all] <reason>" on the same
// line or the line above.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("ioalint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		jsonOut = flags.Bool("json", false, "emit diagnostics as JSON")
		list    = flags.Bool("list", false, "list registered analyzers and exit")
		enable  = flags.String("enable", "", "comma-separated analyzers to run (default all)")
		disable = flags.String("disable", "", "comma-separated analyzers to skip")
	)
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintln(stderr, "ioalint:", err)
		return 2
	}
	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.NewLoader().Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "ioalint:", err)
		return 2
	}
	diags := lint.Run(pkgs, analyzers)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "ioalint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "ioalint: %d diagnostic(s) in %d package(s)\n", len(diags), len(pkgs))
		}
		return 1
	}
	return 0
}

// selectAnalyzers resolves -enable/-disable into the analyzer set.
func selectAnalyzers(enable, disable string) ([]lint.Analyzer, error) {
	byName := func(csv string) ([]lint.Analyzer, error) {
		var out []lint.Analyzer
		for _, name := range strings.Split(csv, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			a := lint.ByName(name)
			if a == nil {
				return nil, fmt.Errorf("unknown analyzer %q (see -list)", name)
			}
			out = append(out, a)
		}
		return out, nil
	}
	analyzers := lint.All()
	if enable != "" {
		picked, err := byName(enable)
		if err != nil {
			return nil, err
		}
		analyzers = picked
	}
	if disable != "" {
		dropped, err := byName(disable)
		if err != nil {
			return nil, err
		}
		skip := make(map[string]bool, len(dropped))
		for _, a := range dropped {
			skip[a.Name()] = true
		}
		var kept []lint.Analyzer
		for _, a := range analyzers {
			if !skip[a.Name()] {
				kept = append(kept, a)
			}
		}
		analyzers = kept
	}
	if len(analyzers) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return analyzers, nil
}
