package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/ledger"
)

// journal parses the run records of a ledger file.
func journal(t *testing.T, path string) []ledger.Run {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, err := ledger.Parse(f)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var runs []ledger.Run
	for _, e := range entries {
		if e.Kind == ledger.KindRun {
			runs = append(runs, *e.Run)
		}
	}
	return runs
}

// TestFailingRunJournalsOnce: whatever makes an invocation fail, the
// ledger gets exactly one record, with verdict fail, the mode and the
// error text — the parent journaled nothing for a failing full run and
// skipped the ledger Close.
func TestFailingRunJournalsOnce(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name, mode, wantErr string
		cfg                 config
	}{
		{"unknown sweep", "sweep-no-such", `unknown sweep "no-such"`,
			config{name: "no-such"}},
		{"artifact cannot be created", "sweep-levels", "levels out:",
			config{name: "levels", out: filepath.Join(dir, "missing-dir", "levels.json"), sweep: bench.SweepConfig{Quick: true, B: 1}}},
		{"-sweep-out without -sweep", "full", "-sweep-out needs -sweep",
			config{out: filepath.Join(dir, "all.json")}},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.ledgerOut = filepath.Join(t.TempDir(), "ledger.jsonl")
			var out bytes.Buffer
			err := run(c.cfg, &out)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("run = %v, want an error containing %q", err, c.wantErr)
			}
			runs := journal(t, c.cfg.ledgerOut)
			if len(runs) != 1 {
				t.Fatalf("%d records journaled, want 1: %+v", len(runs), runs)
			}
			r := runs[0]
			if r.Tool != "arbiterbench" || r.Mode != c.mode || r.Verdict != "fail" || !strings.Contains(r.Detail, c.wantErr) || len(r.Artifacts) != 0 {
				t.Errorf("record = %+v, want mode %q, verdict fail, the error as detail, no artifact", r, c.mode)
			}
		})
	}
}

// TestRunJournalsSweep: a passing -sweep run writes its artifact in
// the form Validate accepts and journals one ok record naming it.
func TestRunJournalsSweep(t *testing.T) {
	dir := t.TempDir()
	cfg := config{
		name: "levels", out: filepath.Join(dir, "levels.json"), ledgerOut: filepath.Join(dir, "ledger.jsonl"),
		sweep: bench.SweepConfig{Quick: true, B: 1, Seed: 1},
		flags: map[string]string{"sweep": "levels", "quick": "true"},
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "Cross-level check") {
		t.Errorf("table missing:\n%s", out.String())
	}
	data, err := os.ReadFile(cfg.out)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := bench.FindSweep("levels")
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Validate(data); err != nil {
		t.Error(err)
	}
	runs := journal(t, cfg.ledgerOut)
	if len(runs) != 1 {
		t.Fatalf("%d records journaled, want 1", len(runs))
	}
	r := runs[0]
	if r.Mode != "sweep-levels" || r.Verdict != "ok" || r.States != 3 || r.Detail != "3 rows" ||
		len(r.Artifacts) != 1 || r.Artifacts[0] != cfg.out || r.Flags["sweep"] != "levels" {
		t.Errorf("record = %+v", r)
	}
}
