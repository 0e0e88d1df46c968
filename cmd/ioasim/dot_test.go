package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/explore"
)

// TestDOTGoldens pins -dot byte for byte, at the CLI's defaults, on the
// figure automata, the level-1 arbiter and the LeLann ring: node order,
// labels, shapes, and every edge in the order the graph builder walks
// them (testdata/dot/<system>.dot). The graph is Engine.Graph's, built
// sequentially.
func TestDOTGoldens(t *testing.T) {
	for _, system := range []string{"fig21", "fig22", "fig23c", "arbiter1", "ring"} {
		cfg := config{
			system: system, dotOut: true, nUsers: 3, gridM: 10, gridK: 8,
			steps: 100, policy: "rr", seed: 1, faults: "none", faultSd: 1,
			explore: explore.Options{Limit: explore.DefaultLimit},
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

// TestStabilizeIdenticalAcrossWorkers: a certificate, its witness
// included, is read off one graph the engine builds sequentially, so
// -stabilize prints the same bytes at every GOMAXPROCS. The ring's
// verdict is a failure by design; only its output is compared.
func TestStabilizeIdenticalAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, system := range []string{"ring", "dijkstra"} {
		var want string
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			cfg := config{
				system: system, stabilize: true, nUsers: 3, gridM: 10, gridK: 8,
				steps: 100, policy: "rr", seed: 1, faults: "none", faultSd: 1,
				explore: explore.Options{Limit: explore.DefaultLimit},
			}
			var out bytes.Buffer
			if err := run(cfg, &out); (err == nil) != (system == "dijkstra") {
				t.Fatalf("%s at GOMAXPROCS=%d: verdict error %v", system, procs, err)
			}
			if procs == 1 {
				want = out.String()
			} else if out.String() != want {
				t.Errorf("%s -stabilize at GOMAXPROCS=%d prints\n%s\nat GOMAXPROCS=1\n%s", system, procs, out.String(), want)
			}
		}
	}
}
