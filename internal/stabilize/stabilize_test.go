package stabilize_test

// Unit battery over hand-built table automata covering every verdict
// the certifier can reach — bounded convergence, closure breaks,
// fair-only convergence, fair-cycle refutation, deadlock refutation —
// plus the integration certifications the issue demands: Dijkstra's
// K-state ring certified stabilizing with a measured bound, and the
// LeLann token ring certified NOT stabilizing under crash corruption
// (the negative control).

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/arbiter/spec"
	"repro/internal/domain"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/ioa"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/stabilize"
)

func mustCertify(t *testing.T, a ioa.Automaton, legit func(ioa.State) bool, env stabilize.Envelope, opts ...stabilize.Options) *stabilize.Certificate {
	t.Helper()
	var o stabilize.Options
	if len(opts) > 0 {
		o = opts[0]
	}
	cert, err := stabilize.Certify(context.Background(), a, legit, env, o)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

func keys(states ...string) []ioa.State {
	out := make([]ioa.State, len(states))
	for i, s := range states {
		out[i] = ioa.KeyState(s)
	}
	return out
}

// chain4 counts down 3 -> 2 -> 1 -> 0 and stops; 0 is the sole
// legitimate state, so rounds-to-legitimacy equals the numeric key.
func chain4() ioa.Automaton {
	d := ioa.NewDef("chain4")
	d.Start(ioa.KeyState("3"))
	d.Internal(ioa.Act("dec"), "c",
		func(s ioa.State) bool { return s.Key() != "0" },
		func(s ioa.State) ioa.State {
			n, _ := strconv.Atoi(s.Key())
			return ioa.KeyState(strconv.Itoa(n - 1))
		})
	return d.MustBuild()
}

func isKey(k string) func(ioa.State) bool {
	return func(s ioa.State) bool { return s.Key() == k }
}

func TestCertifyBoundedChain(t *testing.T) {
	cert := mustCertify(t, chain4(), isKey("0"),
		domain.Explicit("all", keys("3", "2", "1", "0")))
	if !cert.Stabilizing() || !cert.Closed || !cert.Converges || !cert.Bounded {
		t.Fatalf("chain verdict: %+v", cert)
	}
	if cert.K != 3 || cert.MeanRounds != 1.5 {
		t.Fatalf("k=%d mean=%v, want k=3 mean=1.5", cert.K, cert.MeanRounds)
	}
	if cert.EnvelopeStates != 4 || cert.States != 4 || cert.LegitStates != 1 {
		t.Fatalf("sizes: %+v", cert)
	}
	// Sequential closure keeps envelope order, so the rounds table is
	// pinned exactly.
	want := []int{3, 2, 1, 0}
	for i, r := range cert.Rounds {
		if r != want[i] {
			t.Fatalf("rounds %v, want %v", cert.Rounds, want)
		}
	}
}

// TestCertifyClosureBreak: a legitimate state with an escaping step is
// reported with the exact witness step; the escaped state deadlocks,
// refuting convergence too.
func TestCertifyClosureBreak(t *testing.T) {
	d := ioa.NewDef("leaky")
	d.Start(ioa.KeyState("ok"))
	d.Internal(ioa.Act("leak"), "c",
		func(s ioa.State) bool { return s.Key() == "ok" },
		func(ioa.State) ioa.State { return ioa.KeyState("bad") })
	cert := mustCertify(t, d.MustBuild(), isKey("ok"), domain.Explicit("start", keys("ok")))
	if cert.Closed || cert.Stabilizing() {
		t.Fatalf("leak not caught: %+v", cert)
	}
	if b := cert.ClosureBreak; b == nil || b.From.Key() != "ok" || b.To.Key() != "bad" {
		t.Fatalf("closure break witness: %v", cert.ClosureBreak)
	}
	if cert.Converges || cert.Divergence == nil || cert.Divergence.Kind != "deadlock" {
		t.Fatalf("deadlock at bad not reported: %+v", cert.Divergence)
	}
	if cert.Divergence.State.Key() != "bad" {
		t.Fatalf("deadlock state %q", cert.Divergence.State.Key())
	}
	if w := cert.Divergence.Witness; w == nil || w.Last().Key() != "bad" || w.Len() != 1 {
		t.Fatalf("deadlock witness: %v", cert.Divergence.Witness)
	}
}

// spinAuto builds two non-legitimate states flipping under class
// "spin"; withExit adds an always-enabled class "exit" into the
// legitimate sink "L".
func spinAuto(withExit bool) ioa.Automaton {
	inSpin := func(s ioa.State) bool { return s.Key() == "a" || s.Key() == "b" }
	d := ioa.NewDef("spin")
	d.Start(ioa.KeyState("a"))
	d.Internal(ioa.Act("spin"), "spin", inSpin,
		func(s ioa.State) ioa.State {
			if s.Key() == "a" {
				return ioa.KeyState("b")
			}
			return ioa.KeyState("a")
		})
	if withExit {
		d.Internal(ioa.Act("exit"), "exit", inSpin,
			func(ioa.State) ioa.State { return ioa.KeyState("L") })
	}
	return d.MustBuild()
}

// TestCertifyFairUnbounded: the spin cycle starves the always-enabled
// exit class, so no fair execution sustains it — convergence holds
// under fairness, but a demon spinning arbitrarily long destroys any
// uniform bound.
func TestCertifyFairUnbounded(t *testing.T) {
	cert := mustCertify(t, spinAuto(true), isKey("L"), domain.Explicit("a", keys("a")))
	if !cert.Converges || cert.Bounded || cert.K != -1 {
		t.Fatalf("fair-unbounded verdict: converges=%v bounded=%v k=%d",
			cert.Converges, cert.Bounded, cert.K)
	}
	if !cert.Stabilizing() || cert.Divergence != nil {
		t.Fatalf("spin+exit should stabilize fairly: %+v", cert.Divergence)
	}
	if cert.Rounds[0] != -1 {
		t.Fatalf("cycle states should be unsettled in the rounds table: %v", cert.Rounds)
	}
}

// TestCertifyFairCycleRefutes: without the exit class the spin cycle
// performs its only class and is fair-sustainable — convergence is
// refuted with the cycle as witness.
func TestCertifyFairCycleRefutes(t *testing.T) {
	cert := mustCertify(t, spinAuto(false), isKey("L"), domain.Explicit("a", keys("a")))
	if cert.Converges || cert.Stabilizing() {
		t.Fatal("unreachable L certified convergent")
	}
	div := cert.Divergence
	if div == nil || div.Kind != "cycle" || len(div.Cycle) != 2 {
		t.Fatalf("divergence: %+v", div)
	}
	if first, last := div.CycleStates[0], div.CycleStates[len(div.CycleStates)-1]; first.Key() != div.State.Key() || last.Key() != div.State.Key() {
		t.Fatalf("cycle states do not anchor at %q: %v", div.State.Key(), div.CycleStates)
	}
	if div.Witness == nil || div.Witness.Last().Key() != div.State.Key() {
		t.Fatalf("cycle witness: %v", div.Witness)
	}
}

// TestCertifyFigureEightRefutes: a goes 0→1→0, b goes 0→2→0, and a
// at 2 or b at 1 leads to the legitimate sink dead. Both classes stay
// enabled outside dead, so neither simple cycle is fair, but a a b b
// repeated forever is a fair execution that never reaches L.
func TestCertifyFigureEightRefutes(t *testing.T) {
	a, b := ioa.Act("a"), ioa.Act("b")
	s := keys("0", "1", "2", "dead")
	fig8 := ioa.MustTable("figure-eight", ioa.MustSignature(nil, nil, []ioa.Action{a, b}), s[:1],
		[]ioa.Step{
			{From: s[0], Act: a, To: s[1]}, {From: s[1], Act: a, To: s[0]},
			{From: s[0], Act: b, To: s[2]}, {From: s[2], Act: b, To: s[0]},
			{From: s[2], Act: a, To: s[3]}, {From: s[1], Act: b, To: s[3]},
		},
		[]ioa.Class{{Name: "a", Actions: ioa.NewSet(a)}, {Name: "b", Actions: ioa.NewSet(b)}})
	cert := mustCertify(t, fig8, isKey("dead"), domain.Explicit("0", s[:1]))
	if cert.Converges || cert.Divergence == nil || cert.Divergence.Kind != "cycle" {
		t.Fatalf("figure-eight certified convergent:\n%s", cert)
	}
}

// TestFairCycleSearchIsLinear: n states linked to each other by class
// spin, each with an always-enabled exit into L. Spin starves exit,
// so convergence holds under fairness only. A search over simple
// paths takes about ten times longer per state; one pass over the
// components certifies 40 states at once.
func TestFairCycleSearchIsLinear(t *testing.T) {
	const n = 40
	spin, exit := ioa.Act("spin"), ioa.Act("exit")
	var s []ioa.State
	for i := range n {
		s = append(s, ioa.KeyState(strconv.Itoa(i)))
	}
	var steps []ioa.Step
	for i := range s {
		steps = append(steps, ioa.Step{From: s[i], Act: exit, To: ioa.KeyState("L")})
		for j := range s {
			if i != j {
				steps = append(steps, ioa.Step{From: s[i], Act: spin, To: s[j]})
			}
		}
	}
	clique := ioa.MustTable("clique", ioa.MustSignature(nil, nil, []ioa.Action{spin, exit}), s, steps,
		[]ioa.Class{{Name: "spin", Actions: ioa.NewSet(spin)}, {Name: "exit", Actions: ioa.NewSet(exit)}})
	cert := mustCertify(t, clique, isKey("L"), domain.Explicit("clique", s))
	if !cert.Converges || cert.Bounded || !cert.Stabilizing() {
		t.Fatalf("clique verdict, want converges under fairness:\n%s", cert)
	}
}

func TestCertifyDeadlockOnly(t *testing.T) {
	d := ioa.NewDef("stuck")
	d.Start(ioa.KeyState("d"))
	cert := mustCertify(t, d.MustBuild(), isKey("L"), domain.Explicit("d", keys("d")))
	if cert.Converges || cert.Divergence == nil || cert.Divergence.Kind != "deadlock" {
		t.Fatalf("deadlock verdict: %+v", cert.Divergence)
	}
	if w := cert.Divergence.Witness; w == nil || w.Len() != 0 || w.Last().Key() != "d" {
		t.Fatalf("witness should be the empty execution at d: %v", w)
	}
}

func TestCertifyValidation(t *testing.T) {
	a := chain4()
	ctx := context.Background()
	if _, err := stabilize.Certify(ctx, a, nil, domain.Explicit("e", keys("0")), stabilize.Options{}); err == nil {
		t.Fatal("nil legit accepted")
	}
	if _, err := stabilize.Certify(ctx, a, isKey("0"), nil, stabilize.Options{}); err == nil {
		t.Fatal("nil envelope accepted")
	}
	if _, err := stabilize.Certify(ctx, a, isKey("0"), domain.Explicit("e", nil), stabilize.Options{}); err == nil {
		t.Fatal("empty envelope accepted")
	}
	if _, err := stabilize.Certify(ctx, a, isKey("0"),
		domain.Explicit("e", keys("3")), stabilize.Options{Limit: 2}); err == nil {
		t.Fatal("truncated closure accepted")
	}
}

// TestEnvelopeUnionDedup: Certify counts distinct envelope states, so
// overlapping unions do not inflate the envelope.
func TestEnvelopeUnionDedup(t *testing.T) {
	env := domain.Union("u",
		domain.Explicit("x", keys("3", "2")),
		domain.Explicit("y", keys("2", "1", "0")))
	cert := mustCertify(t, chain4(), isKey("0"), env)
	if cert.EnvelopeStates != 4 || cert.Envelope != "u" {
		t.Fatalf("union envelope: %d states, name %q", cert.EnvelopeStates, cert.Envelope)
	}
}

// TestEnvelopeReachableCrash: the Reachable envelope over a
// crash-wrapped automaton, projected through CrashInner, yields the
// inner states a crash can leave behind.
func TestEnvelopeReachableCrash(t *testing.T) {
	d := ioa.NewDef("toggle")
	d.Start(ioa.KeyState("t0"))
	d.Internal(ioa.Act("go"), "c",
		func(s ioa.State) bool { return s.Key() == "t0" },
		func(ioa.State) ioa.State { return ioa.KeyState("t1") })
	auto := d.MustBuild()
	crashed, err := faults.CrashRestart(auto, "t", faults.Reset)
	if err != nil {
		t.Fatal(err)
	}
	env := domain.Reachable("crash(t)", crashed, domain.CrashInner, explore.Options{Workers: 1})
	states, err := domain.Collect(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, s := range states {
		got[s.Key()] = true
	}
	if len(states) != 2 || !got["t0"] || !got["t1"] {
		t.Fatalf("projected crash envelope: %v", got)
	}
}

func TestTupleMap(t *testing.T) {
	f := domain.TupleMap(func(s ioa.State) ioa.State {
		return ioa.KeyState(s.Key() + "'")
	})
	ts := ioa.NewTupleState(keys("x", "y"))
	out := f(ts).(*ioa.TupleState)
	if out.At(0).Key() != "x'" || out.At(1).Key() != "y'" {
		t.Fatalf("tuple mapping: %q", out.Key())
	}
	if got := f(ioa.KeyState("z")); got.Key() != "z'" {
		t.Fatalf("non-tuple mapping: %q", got.Key())
	}
}

// TestCertifyObsMetrics checks the stabilize.* metric publication.
func TestCertifyObsMetrics(t *testing.T) {
	o := obs.New(nil)
	cert := mustCertify(t, chain4(), isKey("0"),
		domain.Explicit("all", keys("3", "2", "1", "0")),
		stabilize.Options{Obs: o})
	if o.Stabilize.Runs.Value() != 1 {
		t.Fatalf("runs %d", o.Stabilize.Runs.Value())
	}
	if o.Stabilize.K.Value() != int64(cert.K) || o.Stabilize.States.Value() != 4 || o.Stabilize.Envelope.Value() != 4 {
		t.Fatalf("gauges k=%d states=%d env=%d", o.Stabilize.K.Value(),
			o.Stabilize.States.Value(), o.Stabilize.Envelope.Value())
	}
	if got := o.Stabilize.Rounds.Snapshot().Count; got != 4 {
		t.Fatalf("rounds histogram count %d", got)
	}
}

// dijkstraFull certifies a Dijkstra ring against its full K^n
// corruption envelope.
func dijkstraFull(t *testing.T, n, k int, opts ...stabilize.Options) (*ring.DijkstraRing, *stabilize.Certificate) {
	t.Helper()
	r, err := ring.NewDijkstra(n, k)
	if err != nil {
		t.Fatal(err)
	}
	all, err := domain.Collect(context.Background(), r.StateDomain())
	if err != nil {
		t.Fatal(err)
	}
	env := domain.Explicit("all-corruptions", all)
	return r, mustCertify(t, r.Auto, r.Legit, env, opts...)
}

// TestDijkstraCertifiedStabilizing is the issue's positive control:
// Dijkstra's ring with K = n is certified self-stabilizing from
// arbitrary corruption, with the exact demonic round bound measured.
func TestDijkstraCertifiedStabilizing(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{2, 2}, {3, 3}, {4, 4}} {
		_, cert := dijkstraFull(t, tc.n, tc.k)
		if !cert.Stabilizing() || !cert.Bounded {
			t.Fatalf("n=%d K=%d: %s", tc.n, tc.k, cert)
		}
		// For n=2 every counter vector is legitimate (exactly one of
		// the two predicates holds), so k=0; larger rings need real
		// convergence work.
		if tc.n > 2 && cert.K < tc.n-1 {
			t.Fatalf("n=%d K=%d: measured bound %d implausibly small", tc.n, tc.k, cert.K)
		}
		t.Logf("n=%d K=%d: closure %d states, k=%d, mean %.2f rounds",
			tc.n, tc.k, cert.States, cert.K, cert.MeanRounds)
	}
}

// TestLeLannCrashRejected is the issue's negative control: the LeLann
// token ring is NOT self-stabilizing. Crashing a process destroys (or,
// for process 0's reset, duplicates) the token, and no ring step ever
// restores the single-token legitimate set — the certifier exhibits a
// fair divergence.
func TestLeLannCrashRejected(t *testing.T) {
	sys, err := ring.New(spec.DefaultUsers(3))
	if err != nil {
		t.Fatal(err)
	}
	comps := make([]ioa.Automaton, len(sys.Procs))
	for i, p := range sys.Procs {
		comps[i], err = faults.CrashRestart(p, "p"+strconv.Itoa(i), faults.Reset)
		if err != nil {
			t.Fatal(err)
		}
	}
	crashed, err := ioa.Compose("ring-crash", comps...)
	if err != nil {
		t.Fatal(err)
	}
	env := domain.Reachable("crash(reset)", crashed, domain.TupleMap(domain.CrashInner), explore.Options{Workers: 1})
	legit := func(s ioa.State) bool { return sys.TokenCount(s) == 1 }
	cert := mustCertify(t, sys.Composite, legit, env)

	if !cert.Closed {
		t.Fatalf("token count is preserved by ring steps, closure must hold: %s", cert)
	}
	if cert.Converges || cert.Stabilizing() {
		t.Fatalf("LeLann ring certified stabilizing — negative control broken:\n%s", cert)
	}
	if cert.Divergence == nil {
		t.Fatal("no divergence witness")
	}
	// The witness anchors outside L: a token count != 1 that ring steps
	// never repair.
	if n := sys.TokenCount(cert.Divergence.State); n == 1 {
		t.Fatalf("divergent state has one token: %s", cert.Divergence.State.Key())
	}
	t.Logf("LeLann rejected: %s divergence at %q (envelope %d states, closure %d)",
		cert.Divergence.Kind, cert.Divergence.State.Key(), cert.EnvelopeStates, cert.States)
}

// TestDijkstraSmallK pins the K boundary the certifier measures:
// K = n-1 still stabilizes (the classic sufficient bound), K = n-2
// does not — the certifier exhibits a genuine fair cycle of
// non-legitimate states.
func TestDijkstraSmallK(t *testing.T) {
	for _, tc := range []struct {
		n, k       int
		stabilizes bool
	}{
		{3, 2, true},
		{4, 3, true},
		{4, 2, false},
		{5, 3, false},
	} {
		_, cert := dijkstraFull(t, tc.n, tc.k)
		if cert.Stabilizing() != tc.stabilizes {
			t.Fatalf("n=%d K=%d: stabilizing=%v, want %v\n%s",
				tc.n, tc.k, cert.Stabilizing(), tc.stabilizes, cert)
		}
		if !tc.stabilizes {
			if cert.Closed != true {
				t.Fatalf("n=%d K=%d: closure should still hold", tc.n, tc.k)
			}
			if cert.Divergence == nil || cert.Divergence.Kind != "cycle" {
				t.Fatalf("n=%d K=%d: want a fair-cycle witness, got %+v", tc.n, tc.k, cert.Divergence)
			}
		}
	}
}
