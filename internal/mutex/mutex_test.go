package mutex

import (
	"context"
	"testing"

	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/proof"
	"repro/internal/sim"
)

func system(t *testing.T) *System {
	t.Helper()
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestComponentsValidate(t *testing.T) {
	sys := system(t)
	for i, p := range sys.Procs {
		if err := ioa.Validate(p); err != nil {
			t.Errorf("process %d: %v", i, err)
		}
		if !ioa.IsPrimitive(p) {
			t.Errorf("process %d not primitive", i)
		}
	}
	for _, r := range sys.Registers {
		if err := ioa.Validate(r); err != nil {
			t.Errorf("register %s: %v", r.Name(), err)
		}
	}
}

func TestRegisterSemantics(t *testing.T) {
	r := NewRegister("flag0", 0)
	s := r.Start()[0]
	// Read returns the initial value.
	s, _ = ioa.StepTo(r, s, Read("flag0", 0), 0)
	enabled := ioa.NewSet(r.Enabled(s)...)
	if !enabled.Has(Value("flag0", 0, 0)) || enabled.Has(Value("flag0", 0, 1)) {
		t.Fatalf("read of 0-valued register enables %v", enabled)
	}
	s, _ = ioa.StepTo(r, s, Value("flag0", 0, 0), 0)
	// Write 1 from the other port, then read it back.
	s, _ = ioa.StepTo(r, s, Write("flag0", 1, 1), 0)
	s, _ = ioa.StepTo(r, s, Ack("flag0", 1), 0)
	s, _ = ioa.StepTo(r, s, Read("flag0", 0), 0)
	enabled = ioa.NewSet(r.Enabled(s)...)
	if !enabled.Has(Value("flag0", 0, 1)) {
		t.Fatalf("after write 1, read sees %v", enabled)
	}
	// Concurrent ports: both can have operations pending at once.
	s2 := r.Start()[0]
	s2, _ = ioa.StepTo(r, s2, Read("flag0", 0), 0)
	s2, _ = ioa.StepTo(r, s2, Write("flag0", 1, 1), 0)
	enabled = ioa.NewSet(r.Enabled(s2)...)
	if !enabled.Has(Value("flag0", 0, 0)) || !enabled.Has(Ack("flag0", 1)) {
		t.Fatalf("concurrent port ops: %v", enabled)
	}
	// Linearization order decides the read's value: deliver the ack
	// first and the read still returns the OLD value? No — the read
	// was serialized at request time in this model: the register's
	// response reflects its value at response time. Deliver ack first:
	s3, _ := ioa.StepTo(r, s2, Ack("flag0", 1), 0)
	enabled = ioa.NewSet(r.Enabled(s3)...)
	if !enabled.Has(Value("flag0", 0, 1)) {
		t.Fatalf("read after linearized write must return 1: %v", enabled)
	}
}

func TestRegisterIgnoresProtocolViolations(t *testing.T) {
	r := NewRegister("turn", 0)
	s := r.Start()[0]
	s, _ = ioa.StepTo(r, s, Read("turn", 0), 0)
	// A second request from the same port while one is pending is
	// ignored (clients never do this; input-enabledness demands a
	// transition anyway).
	s2, _ := ioa.StepTo(r, s, Write("turn", 0, 1), 0)
	if s2.Key() != s.Key() {
		t.Error("pending port must ignore further requests")
	}
}

// TestMutualExclusionExhaustive checks the safety property over the
// ENTIRE reachable state space of the closed system (both users trying
// forever): no state has two processes in the critical section.
// ClosedWorld strips the residual register-port inputs no component
// uses — without it the explorer plays a malicious environment that
// overwrites the shared registers directly (and duly violates mutual
// exclusion; see TestOpenWorldEnvironmentCanBreakMutex).
func TestMutualExclusionExhaustive(t *testing.T) {
	sys := system(t)
	closed, err := ioa.Compose("closed", append([]ioa.Automaton{sys.Mutex}, tryingUsers(t)...)...)
	if err != nil {
		t.Fatal(err)
	}
	v, err := explore.New(explore.Options{Workers: 1, Limit: 5000000}).CheckInvariant(context.Background(), explore.ClosedWorld(closed), func(s ioa.State) bool {
		ts := s.(*ioa.TupleState)
		return sys.InCritCount(ts.At(0)) <= 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("mutual exclusion violated via %v", ioa.TraceString(v.Trace.Acts))
	}
}

// TestOpenWorldEnvironmentCanBreakMutex documents why ClosedWorld
// matters: input-enabledness means the registers accept writes from
// anyone, so with the residual environment inputs left in, an
// adversarial environment resets flag0 behind process 0's back and
// both processes enter the critical section.
func TestOpenWorldEnvironmentCanBreakMutex(t *testing.T) {
	if testing.Short() {
		t.Skip("open-world exploration has a large branching factor")
	}
	sys := system(t)
	closed, err := ioa.Compose("closed", append([]ioa.Automaton{sys.Mutex}, tryingUsers(t)...)...)
	if err != nil {
		t.Fatal(err)
	}
	v, err := explore.New(explore.Options{Workers: 1, Limit: 5000000}).CheckInvariant(context.Background(), closed, func(s ioa.State) bool {
		ts := s.(*ioa.TupleState)
		return sys.InCritCount(ts.At(0)) <= 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("an unconstrained environment should be able to break mutual exclusion")
	}
	sawEnvWrite := false
	for _, act := range v.Trace.Acts {
		if act == Write(RegFlag0, 1, 0) || act == Write(RegFlag1, 0, 0) {
			sawEnvWrite = true
		}
	}
	if !sawEnvWrite {
		t.Errorf("violation should involve an environment register write: %v",
			ioa.TraceString(v.Trace.Acts))
	}
}

// tryingUsers builds two users that try/exit forever.
func tryingUsers(t *testing.T) []ioa.Automaton {
	t.Helper()
	var out []ioa.Automaton
	for i := 0; i < 2; i++ {
		i := i
		d := ioa.NewDef("User" + string(rune('0'+i)))
		d.Start(ioa.KeyState("rem"))
		d.Output(Try(i), "u"+string(rune('0'+i)),
			func(s ioa.State) bool { return s.Key() == "rem" },
			func(ioa.State) ioa.State { return ioa.KeyState("trying") })
		d.Input(Crit(i), func(s ioa.State) ioa.State {
			if s.Key() == "trying" {
				return ioa.KeyState("crit")
			}
			return s
		})
		d.Output(Exit(i), "u"+string(rune('0'+i)),
			func(s ioa.State) bool { return s.Key() == "crit" },
			func(ioa.State) ioa.State { return ioa.KeyState("exited") })
		d.Input(Rem(i), func(s ioa.State) ioa.State {
			if s.Key() == "exited" {
				return ioa.KeyState("rem")
			}
			return s
		})
		out = append(out, d.MustBuild())
	}
	return out
}

// TestNoLockoutUnderFairScheduling: with both users contending
// forever, each enters the critical section repeatedly (Peterson is
// lockout-free given fair computation — exactly the property weak
// fairness of the IOA model delivers here).
func TestNoLockoutUnderFairScheduling(t *testing.T) {
	sys := system(t)
	closed, err := ioa.Compose("closed", append([]ioa.Automaton{sys.Mutex}, tryingUsers(t)...)...)
	if err != nil {
		t.Fatal(err)
	}
	crits := map[ioa.Action]int{}
	x, err := sim.Run(closed, &sim.RoundRobin{}, 2000, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, act := range x.Acts {
		if act.Base() == "crit" {
			crits[act]++
		}
	}
	if crits[Crit(0)] < 10 || crits[Crit(1)] < 10 {
		t.Errorf("lockout under fair scheduling: %v", crits)
	}
	// The trying↝crit conditions hold on every fair execution of the
	// closed system, and resolve with bounded latency along the run.
	var conds []*proof.LeadsTo
	for i := 0; i < 2; i++ {
		i := i
		conds = append(conds, proof.OnComponent(0, &proof.LeadsTo{
			Name: "try↝crit(" + string(rune('0'+i)) + ")",
			S: func(st ioa.State) bool {
				pc := sys.PCOf(st, i)
				return pc != pcIdle && pc != pcInCrit && pc != pcReset && pc != pcAwaitRst && pc != pcToRem
			},
			T: func(a ioa.Action) bool { return a == Crit(i) },
		}))
	}
	// ClosedWorld drops the register inputs no process drives.
	lassos, err := proof.CheckLeadsTo(context.Background(), explore.ClosedWorld(closed), explore.Options{}, conds...)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range lassos {
		if l != nil {
			t.Errorf("%s refuted: stem %s, cycle %s", conds[i].Name, ioa.TraceString(l.Stem.Acts), ioa.TraceString(l.Cycle))
		}
	}
	lat := proof.MaxLatency(x.Prefix(x.Len()-150), conds)
	for name, l := range lat {
		if l > 400 {
			t.Errorf("%s latency %d", name, l)
		}
	}
}

// TestFaultyRegisterBreaksMutex: failure injection — replace flag1
// with a stuck-at-0 register (reads never reflect writes). Process 0
// then always sees flag1 = 0 and walks straight into the critical
// section while process 1 is inside: the safety of the algorithm
// really does rest on the registers' semantics.
func TestFaultyRegisterBreaksMutex(t *testing.T) {
	sys := system(t)
	comps := []ioa.Automaton{
		sys.Procs[0], sys.Procs[1],
		NewRegister(RegFlag0, 0),
		NewStuckRegister(RegFlag1, 0),
		NewRegister(RegTurn, 0),
	}
	composite, err := ioa.Compose("faulty-peterson", comps...)
	if err != nil {
		t.Fatal(err)
	}
	keep := ioa.NewSet(Crit(0), Crit(1), Rem(0), Rem(1))
	faulty := ioa.HideOutputsExcept(composite, keep)
	closed, err := ioa.Compose("closed", append([]ioa.Automaton{faulty}, tryingUsers(t)...)...)
	if err != nil {
		t.Fatal(err)
	}
	inCrit := func(ts *ioa.TupleState, i int) bool {
		inner := ts.At(0).(*ioa.TupleState)
		return inner.At(i).(*procState).pc == pcInCrit
	}
	v, err := explore.New(explore.Options{Workers: 1, Limit: 5000000}).CheckInvariant(context.Background(), explore.ClosedWorld(closed), func(s ioa.State) bool {
		ts := s.(*ioa.TupleState)
		return !(inCrit(ts, 0) && inCrit(ts, 1))
	})
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("a stuck-at-0 flag register must break mutual exclusion")
	}
	t.Logf("violation witness (%d steps): %v", v.Trace.Len(), ioa.TraceString(v.Trace.Acts))
}

// TestExternalSignature: only the try/crit/exit/rem interface is
// visible.
func TestExternalSignature(t *testing.T) {
	sys := system(t)
	sig := sys.Mutex.Sig()
	for i := 0; i < 2; i++ {
		if !sig.IsInput(Try(i)) || !sig.IsInput(Exit(i)) {
			t.Errorf("try/exit(%d) must be inputs", i)
		}
		if !sig.IsOutput(Crit(i)) || !sig.IsOutput(Rem(i)) {
			t.Errorf("crit/rem(%d) must be outputs", i)
		}
		if sig.IsOutput(Read(RegTurn, i)) || sig.IsOutput(Ack(RegTurn, i)) {
			t.Errorf("register traffic of process %d must be hidden", i)
		}
	}
}

// TestAlternationUnderContention: when both processes contend, the
// turn register forces strict alternation of critical sections.
func TestAlternationUnderContention(t *testing.T) {
	sys := system(t)
	closed, err := ioa.Compose("closed", append([]ioa.Automaton{sys.Mutex}, tryingUsers(t)...)...)
	if err != nil {
		t.Fatal(err)
	}
	x, err := sim.Run(closed, &sim.RoundRobin{}, 2000, nil)
	if err != nil {
		t.Fatal(err)
	}
	var order []ioa.Action
	for _, act := range x.Acts {
		if act.Base() == "crit" {
			order = append(order, act)
		}
	}
	if len(order) < 6 {
		t.Fatalf("too few critical sections: %d", len(order))
	}
	same := 0
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			same++
		}
	}
	// Under sustained contention with round-robin scheduling the
	// doorway hands over; occasional repeats can happen when one user
	// briefly leaves the trying set, but alternation must dominate.
	if same > len(order)/3 {
		t.Errorf("alternation too weak: %d repeats in %d sections", same, len(order))
	}
}
