package main

import (
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

// TestRunCleanOnRepo is the CLI-level acceptance check: running the
// full suite over the repository tree exits 0 with no output.
func TestRunCleanOnRepo(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"../../..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d on clean repo\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("unexpected output on clean repo:\n%s", stdout.String())
	}
}

// TestRunFailsOnFixture proves the suite can fail: naming a testdata
// fixture directory explicitly must exit 1, and -json must emit a
// parseable array of diagnostics.
func TestRunFailsOnFixture(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-json", "../../internal/lint/testdata/src/nondetpos"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d on seeded violations, want 1\nstderr:\n%s", code, stderr.String())
	}
	var diags []struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout.String()), &diags); err != nil {
		t.Fatalf("-json output not a diagnostic array: %v\n%s", err, stdout.String())
	}
	if len(diags) == 0 {
		t.Fatal("-json emitted an empty array for a failing fixture")
	}
	for _, d := range diags {
		if d.Analyzer != "nondet" {
			t.Errorf("unexpected analyzer %q in %+v", d.Analyzer, d)
		}
	}
}

// TestRunLoadErrorExits2 names a fixture that does not compile: the
// suite must refuse it with exit 2, and stderr must carry the
// compiler's file:line for the error, not a diagnostic.
func TestRunLoadErrorExits2(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"../../internal/lint/testdata/src/typeerror"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d on a package that does not compile, want 2\nstderr:\n%s", code, stderr.String())
	}
	if !regexp.MustCompile(`(?m)typeerror\.go:5:\d+: `).MatchString(stderr.String()) {
		t.Errorf("stderr names no typeerror.go:5 position:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("unexpected stdout:\n%s", stdout.String())
	}
}

// TestRunFlagHandling covers -list and the unknown-analyzer error path.
func TestRunFlagHandling(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, name := range []string{"nondet", "purestep", "partition", "lockcopy", "errflow"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, stdout.String())
		}
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-enable", "nosuch", "."}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown analyzer exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("missing unknown-analyzer message:\n%s", stderr.String())
	}
}
