package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/store"
)

// TestTraceOutRoundTrip is the observability acceptance check: a
// level-3 arbiter run with -trace-out must produce a structurally
// valid Chrome trace_event JSON document — unmarshalable into
// obs.TraceFile, with complete spans carrying durations, instant fault
// events, and memo counter series.
func TestTraceOutRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	cfg := config{
		system: "arbiter3", nUsers: 3, reach: true,
		explore: explore.Options{Limit: 20000},
		faults:  "drop=0.2", faultSd: 1, steps: 100, policy: "rr",
		traceOut: tracePath, metricsOut: metricsPath,
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "reachable states") {
		t.Fatalf("unexpected run output: %s", out.String())
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc obs.TraceFile
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace artifact does not round-trip: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	var spans, instants, counters, meta int
	for _, e := range doc.TraceEvents {
		if e.Name == "" || e.Ph == "" {
			t.Fatalf("event missing name/ph: %+v", e)
		}
		switch e.Ph {
		case "X":
			spans++
			if e.Dur < 0 {
				t.Errorf("span %q has negative duration %v", e.Name, e.Dur)
			}
		case "i":
			instants++
			if e.S != "t" {
				t.Errorf("instant %q scope = %q, want t", e.Name, e.S)
			}
		case "C":
			counters++
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %q on event %q", e.Ph, e.Name)
		}
	}
	if spans == 0 || instants == 0 || counters == 0 || meta == 0 {
		t.Fatalf("trace missing event kinds: %d spans, %d instants (faults), %d counters, %d metadata",
			spans, instants, counters, meta)
	}

	// The metrics artifact must round-trip too, with the drop counter
	// matching the number of drop instants in the trace (arbiter3 with
	// drop=0.2 at this seed injects at least one).
	mraw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(mraw, &snap); err != nil {
		t.Fatalf("metrics artifact does not round-trip: %v", err)
	}
	if snap.Counters["faults.drop"] == 0 {
		t.Error("faults.drop = 0, want > 0 (drop=0.2 at fault-seed 1)")
	}
	var dropInstants int64
	for _, e := range doc.TraceEvents {
		if e.Ph == "i" && e.Name == "drop" {
			dropInstants++
		}
	}
	if dropInstants != snap.Counters["faults.drop"] {
		t.Errorf("drop instants (%d) != faults.drop counter (%d)", dropInstants, snap.Counters["faults.drop"])
	}
	if snap.Counters["explore.states_admitted"] == 0 {
		t.Error("explore.states_admitted = 0")
	}
}

// TestRunWithoutObsFlags checks the uninstrumented path still works
// and writes no artifacts.
func TestRunWithoutObsFlags(t *testing.T) {
	var out bytes.Buffer
	cfg := config{system: "arbiter1", nUsers: 2, steps: 40, policy: "rr", faults: "none"}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "ran 40 steps") {
		t.Fatalf("unexpected output: %s", out.String())
	}
}

// TestRunSimWithObs drives the simulator path with tracing on and
// checks the per-class fairness counters land in the snapshot.
func TestRunSimWithObs(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.json")
	cfg := config{
		system: "arbiter3", nUsers: 3, steps: 60, policy: "rr", faults: "none",
		metricsOut: metricsPath,
	}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["sim.steps"] != 60 {
		t.Errorf("sim.steps = %d, want 60", snap.Counters["sim.steps"])
	}
	if snap.Counters["sim.runs"] != 1 {
		t.Errorf("sim.runs = %d, want 1", snap.Counters["sim.runs"])
	}
	classFires := 0
	var total int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "sim.class_fires.") {
			classFires++
			total += v
		}
	}
	if classFires == 0 {
		t.Error("no per-class fire counters recorded")
	}
	if total != snap.Counters["sim.steps"] {
		t.Errorf("class fires sum to %d, want sim.steps = %d", total, snap.Counters["sim.steps"])
	}
}

// TestRunLedger is the run-ledger acceptance check: two runs append
// into one journal — an induction certification (provenance record
// with per-conjunct obligation counts) and a parallel reachability
// walk (progress snapshots) — and Parse round-trips the whole file.
func TestRunLedger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	var out bytes.Buffer
	cfg := config{
		system: "dijkstra", nUsers: 3, induct: true,
		faults: "none", policy: "rr", ledgerOut: path,
		flags: map[string]string{"system": "dijkstra", "induct": "true"},
	}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("induct run: %v", err)
	}
	cfg2 := config{
		system: "arbiter1", nUsers: 3, reach: true,
		explore: explore.Options{},
		faults:  "none", policy: "rr", ledgerOut: path,
	}
	if err := run(cfg2, &out); err != nil {
		t.Fatalf("reach run: %v", err)
	}

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
	snapshots := 0
	for _, e := range entries {
		switch e.Kind {
		case ledger.KindRun:
			runs = append(runs, *e.Run)
		case ledger.KindSnapshot:
			snapshots++
		}
	}
	if len(runs) != 2 {
		t.Fatalf("journal holds %d run records, want 2 (appended, not truncated)", len(runs))
	}
	if snapshots < 2 {
		t.Fatalf("journal holds %d progress snapshots, want >= 2", snapshots)
	}

	ind := runs[0]
	if ind.Tool != "ioasim" || ind.Mode != "induct" || ind.System != "dijkstra" || ind.Verdict != "ok" {
		t.Fatalf("induct provenance = %+v", ind)
	}
	if ind.States <= 0 || ind.Domain == "" || ind.WallNS < 0 {
		t.Fatalf("induct provenance missing size/domain: %+v", ind)
	}
	if len(ind.Obligations) == 0 {
		t.Fatalf("induct run journaled no per-conjunct obligations: %+v", ind)
	}
	for _, ob := range ind.Obligations {
		if ob.Conjunct == "" || ob.Discharged <= 0 {
			t.Fatalf("empty obligation row: %+v", ind.Obligations)
		}
	}
	if ind.Flags["induct"] != "true" {
		t.Fatalf("explicit flags not journaled: %+v", ind.Flags)
	}

	re := runs[1]
	if re.Mode != "reach" || re.System != "arbiter1" || re.Verdict != "ok" || re.States <= 0 {
		t.Fatalf("reach provenance = %+v", re)
	}
}

// TestRunLedgerFailVerdict: a failing certification still journals its
// record, with verdict fail and the CTI evidence in Detail.
func TestRunLedgerFailVerdict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	var out bytes.Buffer
	// The LeLann ring is not self-stabilizing under crash-restart: the
	// certifier exits non-zero by design.
	cfg := config{
		system: "ring", nUsers: 2, stabilize: true,
		faults: "none", policy: "rr", ledgerOut: path,
	}
	err := run(cfg, &out)
	if err == nil {
		t.Fatal("ring stabilization unexpectedly certified")
	}
	f, ferr := os.Open(path)
	if ferr != nil {
		t.Fatal(ferr)
	}
	defer f.Close()
	entries, perr := ledger.Parse(f)
	if perr != nil {
		t.Fatalf("Parse: %v", perr)
	}
	var rec *ledger.Run
	for _, e := range entries {
		if e.Kind == ledger.KindRun {
			rec = e.Run
		}
	}
	if rec == nil {
		t.Fatal("failing run journaled no provenance record")
	}
	if rec.Verdict != "fail" || rec.Detail == "" {
		t.Fatalf("failing run journaled %+v, want verdict=fail with detail", rec)
	}
	if rec.Mode != "stabilize" || rec.States <= 0 {
		t.Fatalf("stabilize provenance = %+v", rec)
	}
}

// TestWriteFileReportsErrors checks the artifact writer surfaces
// partial-write errors instead of swallowing them (satellite: flush
// and close on error paths).
func TestWriteFileReportsErrors(t *testing.T) {
	if err := writeFile(filepath.Join(t.TempDir(), "no", "such", "dir", "x.json"),
		func(w io.Writer) error { return nil }); err == nil {
		t.Error("want error for uncreatable path")
	}
	boom := errors.New("boom")
	path := filepath.Join(t.TempDir(), "x.json")
	err := writeFile(path, func(w io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("emit error not propagated: %v", err)
	}
}

// distRun runs coord as a coordinator and two hand-started workers
// running worker with -dist-join set to the coordinator's banner
// address. It returns what the coordinator printed after its banner,
// its error and the workers' errors.
func distRun(t *testing.T, coord, worker config) (string, error, []error) {
	t.Helper()
	coord.distListen, coord.distWorkers = "127.0.0.1:0", 2
	pr, pw := io.Pipe()
	coordErr := make(chan error, 1)
	go func() {
		err := run(coord, pw)
		pw.Close()
		coordErr <- err
	}()
	rd := bufio.NewReader(pr)
	first, err := rd.ReadString('\n') // "coordinating on <addr> (2 workers)"
	if err != nil {
		t.Fatalf("coordinator banner: %v (%v)", err, <-coordErr)
	}
	fields := strings.Fields(first)
	if len(fields) < 3 {
		t.Fatalf("coordinator banner %q", first)
	}
	worker.distJoin = fields[2]
	workerErrs := make(chan error, coord.distWorkers)
	for i := 0; i < coord.distWorkers; i++ {
		go func() { workerErrs <- run(worker, io.Discard) }()
	}
	rest, err := io.ReadAll(rd)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, coord.distWorkers)
	for i := range errs {
		errs[i] = <-workerErrs
	}
	return string(rest), <-coordErr, errs
}

// TestDistListenTruncation: a sharded -reach that outgrows -limit
// exits zero with the same "truncated at state budget" line the
// single-process and census paths print — the cluster's budget abort is
// explore.ErrLimit, which coordRun recognises.
func TestDistListenTruncation(t *testing.T) {
	grid := config{system: "grid", gridM: 4, gridK: 4, reach: true, faults: "none",
		explore: explore.Options{Limit: 10}}
	rest, coordErr, workerErrs := distRun(t, grid, grid)
	if coordErr != nil {
		t.Fatalf("truncated coordinator run: %v", coordErr)
	}
	if !strings.Contains(rest, "grid: truncated at state budget 10 (pass a larger -limit)") {
		t.Fatalf("no truncation line in coordinator output: %q", rest)
	}
	for _, err := range workerErrs {
		if err == nil || !strings.Contains(err.Error(), "coordinator aborted") {
			t.Fatalf("worker err = %v, want the coordinator's abort", err)
		}
	}
}

// TestDistJoinRemovesShardDir: a worker given -spill-dir d spills into a
// private d/shard-* directory and removes it when it finishes, so a
// finished cluster leaves d as it found it.
func TestDistJoinRemovesShardDir(t *testing.T) {
	dir := t.TempDir()
	coord := config{system: "grid", gridM: 4, gridK: 4, reach: true, faults: "none",
		explore: explore.Options{Limit: explore.DefaultLimit}}
	worker := coord
	worker.explore.Spill = &store.SpillOptions{Dir: dir, MemBudget: 1 << 20}
	rest, coordErr, workerErrs := distRun(t, coord, worker)
	if err := errors.Join(append(workerErrs, coordErr)...); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rest, "256 reachable states") {
		t.Fatalf("coordinator output %q lacks the 4^4 grid's 256 states", rest)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("the workers left %s behind in the spill directory", e.Name())
	}
}

// TestJoinAddr pins the -dist-spawn join-address derivation: workers
// must be handed a dialable loopback address whenever the coordinator
// listens on an unspecified host or an ephemeral port, and the real
// bound port always wins over the flag's ":0".
func TestJoinAddr(t *testing.T) {
	for _, listen := range []string{":0", "127.0.0.1:0", "0.0.0.0:0"} {
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			t.Fatalf("listen %s: %v", listen, err)
		}
		got := joinAddr(ln.Addr())
		_, port, err := net.SplitHostPort(got)
		if err != nil {
			t.Fatalf("listen %s: joinAddr %q not host:port: %v", listen, got, err)
		}
		if port == "0" {
			t.Errorf("listen %s: joinAddr %q kept the ephemeral port 0", listen, got)
		}
		c, err := net.Dial("tcp", got)
		if err != nil {
			t.Errorf("listen %s: joinAddr %q is not dialable: %v", listen, got, err)
		} else {
			c.Close()
		}
		ln.Close()
	}
}
