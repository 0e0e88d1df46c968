package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"repro/internal/testseed"
)

// childEnv carries a childSpec to a re-executed copy of this binary
// (the test binary, under go test).
const childEnv = "REPRO_BENCHMARK_CHILD"

// childProcs is every child's GOMAXPROCS: the host has two cores, and
// no workload starts more than two workers or two cluster ranks.
const childProcs = 2

// now is the repository's one sanctioned wall-clock accessor.
var now = testseed.Now

// Child modes.
const (
	modeRep       = "rep"       // set up, run the timed verdict once, check it
	modeSetup     = "setup"     // set up only (a setup_s sample)
	modePreflight = "preflight" // oracles and must-fail arms, untimed
	modeTrace     = "trace"     // traced verdict plus per-layer replays
	modeConfirm   = "confirm"   // pinned counts against ReferenceReach
)

type childSpec struct {
	Mode     string `json:"mode"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Quick    bool   `json:"quick"`
	// Dir is where the child may create temporary spill data and writes
	// its trace.
	Dir string `json:"dir"`
	// T0 is the parent's wall clock (Unix ns) just before it started the
	// child: setup_s runs from here to the first timed call, so it
	// includes process start.
	T0 int64 `json:"t0"`
	// BaseVerdictNS is this workload's untraced verdict time and
	// RatioVerdictNS that of workload.ratioTo, measured by the parent
	// in children of their own: the bases of the traced run's ratios.
	BaseVerdictNS  int64 `json:"base_verdict_ns,omitempty"`
	RatioVerdictNS int64 `json:"ratio_verdict_ns,omitempty"`
}

// childResult is the child's one line of standard output.
type childResult struct {
	SetupNS   int64 `json:"setup_ns"`
	VerdictNS int64 `json:"verdict_ns"`
	States    int64 `json:"states"`
	// Ops counts the operations the child attempted (a timed verdict or
	// one preflight arm); Failures names the ones that failed.
	Ops      int                `json:"ops"`
	Failures []string           `json:"failures,omitempty"`
	Exact    map[string]int64   `json:"exact,omitempty"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

// op runs one operation and records its failure, if any.
func (c *childResult) op(name string, fn func() error) {
	c.Ops++
	if err := fn(); err != nil {
		c.Failures = append(c.Failures, name+": "+err.Error())
	}
}

// spawn runs one child to completion and returns its result and its
// peak resident set in bytes.
func spawn(spec childSpec, stderr io.Writer) (childResult, int64, error) {
	var res childResult
	exe, err := os.Executable()
	if err != nil {
		return res, 0, err
	}
	cmd := exec.Command(exe)
	cmd.Stderr = stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	for _, kv := range os.Environ() {
		// Every repetition runs with the same scheduler and collector
		// settings whatever the caller's environment says.
		if !strings.HasPrefix(kv, "GOMAXPROCS=") && !strings.HasPrefix(kv, "GOGC=") && !strings.HasPrefix(kv, "GOMEMLIMIT=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	spec.T0 = now().UnixNano()
	b, err := json.Marshal(spec)
	if err != nil {
		return res, 0, err
	}
	cmd.Env = append(cmd.Env, fmt.Sprintf("GOMAXPROCS=%d", childProcs), childEnv+"="+string(b))
	if err := cmd.Run(); err != nil {
		return res, 0, fmt.Errorf("child %s %s: %w", spec.Mode, spec.Workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, 0, fmt.Errorf("child %s %s: bad result: %w", spec.Mode, spec.Workload, err)
	}
	var peak int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peak = int64(ru.Maxrss) << 10 // Linux reports KiB
	}
	return res, peak, nil
}

// childMain is the body of a child process.
func childMain(specJSON string, stdout, stderr io.Writer) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(stderr, "benchmark child:", err)
		return 2
	}
	w := findWorkload(spec.Workload)
	if w == nil {
		fmt.Fprintf(stderr, "benchmark child: unknown workload %q\n", spec.Workload)
		return 2
	}
	res, err := runChild(spec, w)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark child:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "benchmark child:", err)
		return 1
	}
	return 0
}

func runChild(spec childSpec, w *workload) (childResult, error) {
	var res childResult
	// Temporary data lives under the output directory, inside the
	// checkout, and is removed on every exit path of this function.
	tmp, err := os.MkdirTemp(spec.Dir, "tmp-"+w.name+"-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(tmp)

	switch spec.Mode {
	case modePreflight:
		for _, a := range w.preflight(spec.Seed, spec.Quick, tmp) {
			res.op(a.name, a.run)
		}
		return res, nil
	case modeConfirm:
		for _, a := range w.confirm() {
			res.op(a.name, a.run)
		}
		return res, nil
	case modeTrace:
		return traceChild(spec, w, tmp)
	}

	in, err := w.build(spec.Quick, tmp)
	if err != nil {
		return res, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer in.close()
	res.SetupNS = now().UnixNano() - spec.T0
	if spec.Mode == modeSetup {
		return res, nil
	}
	start := now()
	out, verr := in.verdict(nil, w.workers)
	res.VerdictNS = now().Sub(start).Nanoseconds()
	res.States, res.Exact = out.states, out.exact
	res.op("verdict", func() error { return verr })
	return res, nil
}

// perItem is d in nanoseconds per item.
func perItem(d time.Duration, n int64) float64 {
	if n <= 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
