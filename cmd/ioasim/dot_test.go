package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/explore"
)

// TestDOTGoldens pins -dot byte for byte, at the CLI's defaults, on the
// figure automata, the level-1 arbiter and the LeLann ring: node order,
// labels, shapes, and every edge in the order the graph builder walks
// them (testdata/dot/<system>.dot). The engine's parallel order does not
// depend on the worker count, and at one worker these graphs come out
// the same.
func TestDOTGoldens(t *testing.T) {
	for _, system := range []string{"fig21", "fig22", "fig23c", "arbiter1", "ring"} {
		cfg := config{
			system: system, dotOut: true, nUsers: 3, gridM: 10, gridK: 8,
			steps: 100, policy: "rr", seed: 1, faults: "none", faultSd: 1,
			explore: explore.Options{Workers: 2, Limit: explore.DefaultLimit},
		}
		var out bytes.Buffer
		if err := run(cfg, &out); err != nil {
			t.Fatalf("%s: %v", system, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "dot", system+".dot"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s: -dot output differs from testdata/dot/%s.dot:\n%s", system, system, out.String())
		}
	}
}
