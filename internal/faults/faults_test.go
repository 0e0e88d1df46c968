package faults

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/ioa"
	"repro/internal/obs"
)

func TestParseProfile(t *testing.T) {
	cases := []struct {
		in   string
		want Profile
	}{
		{"", Profile{}},
		{"none", Profile{}},
		{"drop=0.1", Profile{Drop: 0.1}},
		{"drop=0.1,dup=0.05,delay=3", Profile{Drop: 0.1, Duplicate: 0.05, Delay: 3}},
		{" dup=1 ", Profile{Duplicate: 1}},
		{"crash=0.2", Profile{Crash: 0.2}},
		{"crash=0.2,crashlen=3", Profile{Crash: 0.2, CrashLen: 3}},
	}
	for _, c := range cases {
		got, err := ParseProfile(c.in)
		if err != nil {
			t.Fatalf("ParseProfile(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseProfile(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"drop", "loss=0.5", "drop=x", "delay=-1", "drop=1.5", "crash=1.5", "crashlen=-2", "crashlen=x"} {
		if _, err := ParseProfile(bad); err == nil {
			t.Errorf("ParseProfile(%q): want error", bad)
		}
	}
	// String round-trips through ParseProfile.
	p := Profile{Drop: 0.25, Duplicate: 0.5, Delay: 2, Crash: 0.125, CrashLen: 3}
	back, err := ParseProfile(p.String())
	if err != nil || back != p {
		t.Errorf("round trip %q -> %+v (%v)", p.String(), back, err)
	}
	if (Profile{}).String() != "none" {
		t.Errorf("zero profile renders %q", (Profile{}).String())
	}
}

func TestScheduleDeterministic(t *testing.T) {
	p := Profile{Drop: 0.3, Duplicate: 0.3, Delay: 4}
	a, err := NewSchedule(42, p)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewSchedule(42, p)
	c, _ := NewSchedule(43, p)
	differs := false
	for seq := uint64(0); seq < 200; seq++ {
		if a.DropsMessage("x>y", seq) != b.DropsMessage("x>y", seq) ||
			a.DuplicatesMessage("x>y", seq) != b.DuplicatesMessage("x>y", seq) ||
			a.SlackOf("x>y", seq) != b.SlackOf("x>y", seq) {
			t.Fatalf("same seed disagrees at seq %d", seq)
		}
		if a.DropsMessage("x>y", seq) != c.DropsMessage("x>y", seq) {
			differs = true
		}
		if s := a.SlackOf("x>y", seq); s < 0 || s > p.Delay {
			t.Fatalf("slack %d outside [0,%d]", s, p.Delay)
		}
	}
	if !differs {
		t.Error("seeds 42 and 43 produced identical drop schedules")
	}
	// Rate extremes and the nil schedule.
	var nilSched *Schedule
	if nilSched.DropsMessage("x>y", 0) || nilSched.SlackOf("x>y", 0) != 0 {
		t.Error("nil schedule must be fault-free")
	}
	all, _ := NewSchedule(7, Profile{Drop: 1})
	none, _ := NewSchedule(7, Profile{})
	for seq := uint64(0); seq < 50; seq++ {
		if !all.DropsMessage("x>y", seq) {
			t.Error("rate 1 must always drop")
		}
		if none.DropsMessage("x>y", seq) {
			t.Error("rate 0 must never drop")
		}
	}
}

// oneLink builds a single-channel network carrying kinds k0..k(n-1).
func oneLink(t *testing.T, n int, inj Injection) *ioa.Prog {
	t.Helper()
	msgs := make([]Msg, n)
	for i := range msgs {
		k := "k" + strconv.Itoa(i)
		msgs[i] = Msg{Kind: k, Send: ioa.Act("snd", k), Recv: ioa.Act("rcv", k)}
	}
	net, err := NewNetwork("net", []Link{{From: "x", To: "y", Msgs: msgs}}, inj)
	if err != nil {
		t.Fatal(err)
	}
	if err := ioa.Validate(net); err != nil {
		t.Fatal(err)
	}
	return net
}

func step(t *testing.T, a ioa.Automaton, s ioa.State, act ioa.Action) ioa.State {
	t.Helper()
	next, ok := ioa.StepTo(a, s, act, 0)
	if !ok {
		t.Fatalf("action %s not enabled from %s", act, s.Key())
	}
	return next
}

func TestNetworkReliableFIFO(t *testing.T) {
	net := oneLink(t, 2, Injection{})
	s := net.Start()[0]
	s = step(t, net, s, ioa.Act("snd", "k0"))
	s = step(t, net, s, ioa.Act("snd", "k1"))
	ns := s.(*NetState)
	if got := ns.Queue("x", "y"); len(got) != 2 || got[0] != "k0" || got[1] != "k1" {
		t.Fatalf("queue = %v", got)
	}
	if !ns.HeadIs("x", "y", "k0") || ns.HeadIs("x", "y", "k1") || !ns.Has("x", "y", "k1") {
		t.Fatal("head/has disagree with FIFO order")
	}
	if len(ioa.Successors(net, s, ioa.Act("rcv", "k1"))) != 0 {
		t.Fatal("out-of-order delivery enabled on reliable channel")
	}
	s = step(t, net, s, ioa.Act("rcv", "k0"))
	s = step(t, net, s, ioa.Act("rcv", "k1"))
	if s.(*NetState).Len() != 0 {
		t.Fatalf("messages left over: %s", s.Key())
	}
	if s.(*NetState).Sent("x", "y") != 0 {
		t.Fatal("sequence counter advanced without a schedule")
	}
}

func TestScheduledDropAndDuplicate(t *testing.T) {
	dropAll, _ := NewSchedule(1, Profile{Drop: 1})
	net := oneLink(t, 1, Injection{Sched: dropAll})
	s := step(t, net, net.Start()[0], ioa.Act("snd", "k0"))
	ns := s.(*NetState)
	if ns.Len() != 0 || ns.Sent("x", "y") != 1 {
		t.Fatalf("drop-all: len=%d sent=%d", ns.Len(), ns.Sent("x", "y"))
	}

	dupAll, _ := NewSchedule(1, Profile{Duplicate: 1})
	net = oneLink(t, 1, Injection{Sched: dupAll})
	s = step(t, net, net.Start()[0], ioa.Act("snd", "k0"))
	if got := s.(*NetState).Queue("x", "y"); len(got) != 2 || got[0] != "k0" || got[1] != "k0" {
		t.Fatalf("dup-all queue = %v", got)
	}
	// Duplicates are adjacent: order between distinct messages holds.
	s = step(t, net, s, ioa.Act("snd", "k0"))
	if got := s.(*NetState).Queue("x", "y"); len(got) != 4 {
		t.Fatalf("queue = %v", got)
	}
}

func TestScheduledDelayIsBounded(t *testing.T) {
	const delay = 2
	for seed := int64(0); seed < 20; seed++ {
		sched, _ := NewSchedule(seed, Profile{Delay: delay})
		const n = 8
		net := oneLink(t, n, Injection{Sched: sched})
		s := net.Start()[0]
		for i := 0; i < n; i++ {
			s = step(t, net, s, ioa.Act("snd", "k"+strconv.Itoa(i)))
		}
		q := s.(*NetState).Queue("x", "y")
		if len(q) != n {
			t.Fatalf("seed %d: queue = %v", seed, q)
		}
		for pos, kind := range q {
			i, _ := strconv.Atoi(kind[1:])
			// Message i was sent i-th; it may be overtaken by at most
			// `delay` later sends, i.e. sit at most `delay` past its
			// FIFO position.
			if pos > i+delay {
				t.Errorf("seed %d: message %s delivered at %d, > bound %d", seed, kind, pos, i+delay)
			}
		}
	}
}

func TestAdversaryDrop(t *testing.T) {
	net := oneLink(t, 2, Injection{Adversary: []Class{Drop}})
	s := net.Start()[0]
	if len(ioa.Successors(net, s, DropAction("x", "y"))) != 0 {
		t.Fatal("drop enabled on empty channel")
	}
	s = step(t, net, s, ioa.Act("snd", "k0"))
	s = step(t, net, s, ioa.Act("snd", "k1"))
	s = step(t, net, s, DropAction("x", "y"))
	if got := s.(*NetState).Queue("x", "y"); len(got) != 1 || got[0] != "k1" {
		t.Fatalf("after drop: queue = %v", got)
	}
	if !net.Sig().IsInternal(DropAction("x", "y")) {
		t.Fatal("drop must be internal")
	}
}

// TestNetworkEnabledCountsNoFault: asking which adversary actions are
// enabled computes no fault, so it moves no counter and emits no trace
// instant; a drop step counts exactly one.
func TestNetworkEnabledCountsNoFault(t *testing.T) {
	o := obs.New(nil)
	net := oneLink(t, 2, Injection{Adversary: []Class{Drop, Duplicate, Reorder}, Obs: o})
	s := net.Start()[0]
	s = step(t, net, s, ioa.Act("snd", "k0"))
	s = step(t, net, s, ioa.Act("snd", "k1"))
	counters := func() [3]int64 {
		return [3]int64{o.Faults.Drop.Value(), o.Faults.Dup.Value(), o.Faults.Reorder.Value()}
	}
	enabled := net.Enabled(s)
	for _, a := range []ioa.Action{DropAction("x", "y"), DupAction("x", "y"), ReorderAction("x", "y")} {
		if !slices.Contains(enabled, a) {
			t.Fatalf("%s not enabled with two queued messages: %v", a, enabled)
		}
	}
	if got := counters(); got != [3]int64{} || o.Tracer.Len() != 0 {
		t.Fatalf("Enabled counted faults: drop/dup/reorder = %v, %d trace events", got, o.Tracer.Len())
	}
	if got := ioa.Successors(net, s, DropAction("x", "y")); len(got) != 1 {
		t.Fatalf("drop yielded %d successors", len(got))
	}
	if got := counters(); got != [3]int64{1, 0, 0} || o.Tracer.Len() != 1 {
		t.Fatalf("one drop step: drop/dup/reorder = %v, %d trace events, want [1 0 0] and 1", got, o.Tracer.Len())
	}
}

func TestAdversaryDuplicateAndReorder(t *testing.T) {
	net := oneLink(t, 2, Injection{Adversary: []Class{Duplicate, Reorder, Delay}})
	s := net.Start()[0]
	s = step(t, net, s, ioa.Act("snd", "k0"))
	if len(ioa.Successors(net, s, ReorderAction("x", "y"))) != 0 {
		t.Fatal("reorder enabled with a single message")
	}
	s = step(t, net, s, DupAction("x", "y"))
	if got := s.(*NetState).Queue("x", "y"); len(got) != 2 || got[0] != "k0" || got[1] != "k0" {
		t.Fatalf("after dup: queue = %v", got)
	}
	s = step(t, net, s, ioa.Act("snd", "k1"))
	s = step(t, net, s, ReorderAction("x", "y"))
	s = step(t, net, s, ReorderAction("x", "y"))
	s = step(t, net, s, ioa.Act("rcv", "k0"))
	got := s.(*NetState).Queue("x", "y")
	if len(got) != 2 {
		t.Fatalf("queue = %v", got)
	}
}

func TestAdversaryCrashRejected(t *testing.T) {
	if _, err := NewNetwork("net", []Link{{From: "x", To: "y",
		Msgs: []Msg{{Kind: "k", Send: ioa.Act("s"), Recv: ioa.Act("r")}}}},
		Injection{Adversary: []Class{Crash}}); err == nil {
		t.Fatal("Crash accepted as a channel fault")
	}
}

// counter is a tiny automaton for wrapper tests: input inc bumps a
// counter, output emit (enabled when positive) decrements it.
func counter(t *testing.T) *ioa.Prog {
	t.Helper()
	val := func(s ioa.State) int {
		n, _ := strconv.Atoi(string(s.(ioa.KeyState)))
		return n
	}
	d := ioa.NewDef("ctr")
	d.Start(ioa.KeyState("0"))
	d.Input(ioa.Act("inc"), func(s ioa.State) ioa.State {
		return ioa.KeyState(strconv.Itoa(val(s) + 1))
	})
	d.Output(ioa.Act("emit"), "ctr",
		func(s ioa.State) bool { return val(s) > 0 },
		func(s ioa.State) ioa.State { return ioa.KeyState(strconv.Itoa(val(s) - 1)) })
	p, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCrashRestart(t *testing.T) {
	for _, mode := range []RestartMode{Reset, Resume} {
		c, err := CrashRestart(counter(t), "p", mode)
		if err != nil {
			t.Fatal(err)
		}
		if err := ioa.Validate(c); err != nil {
			t.Fatal(err)
		}
		s := c.Start()[0]
		s = step(t, c, s, ioa.Act("inc"))
		s = step(t, c, s, ioa.Act("inc"))
		s = step(t, c, s, CrashAction("p"))
		cs := s.(*CrashState)
		if !cs.Down() {
			t.Fatal("not down after crash")
		}
		if len(ioa.Successors(c, s, ioa.Act("emit"))) != 0 {
			t.Fatal("local action enabled while down")
		}
		// Inputs are absorbed while down.
		s2 := step(t, c, s, ioa.Act("inc"))
		if s2.Key() != s.Key() {
			t.Fatal("input changed a crashed process's state")
		}
		if en := c.Enabled(s); len(en) != 1 || en[0] != RestartAction("p") {
			t.Fatalf("enabled while down = %v", en)
		}
		s = step(t, c, s, RestartAction("p"))
		inner := s.(*CrashState).Inner()
		switch mode {
		case Reset:
			if inner.Key() != "0" {
				t.Fatalf("reset restart kept state %s", inner.Key())
			}
		case Resume:
			if inner.Key() != "2" {
				t.Fatalf("resume restart lost state, got %s", inner.Key())
			}
		}
		if len(ioa.Successors(c, s, CrashAction("p"))) == 0 {
			t.Fatal("cannot crash again after restart")
		}
	}
	// Double wrap with the same name must be rejected.
	c, _ := CrashRestart(counter(t), "p", Reset)
	if _, err := CrashRestart(c, "p", Reset); err == nil {
		t.Fatal("duplicate fault name accepted")
	}
}

func TestClampStuck(t *testing.T) {
	stuck := Clamp(counter(t), "stuck7", func(s ioa.State) ioa.State {
		return ioa.KeyState("7")
	})
	if err := ioa.Validate(stuck); err != nil {
		t.Fatal(err)
	}
	s := stuck.Start()[0]
	if s.Key() != "7" {
		t.Fatalf("start not clamped: %s", s.Key())
	}
	s = step(t, stuck, s, ioa.Act("inc"))
	if s.Key() != "7" {
		t.Fatalf("inc escaped the clamp: %s", s.Key())
	}
	s = step(t, stuck, s, ioa.Act("emit"))
	if s.Key() != "7" {
		t.Fatalf("emit escaped the clamp: %s", s.Key())
	}
}

// TestCrashWindowSchedule checks the burst-loss semantics of
// CrashesMessage: a message is lost iff one of the last CrashLen sends
// (itself included) opened a window, opens marks exactly the window
// openers, and everything is a deterministic function of the seed.
func TestCrashWindowSchedule(t *testing.T) {
	const n = 3
	sched, err := NewSchedule(42, Profile{Crash: 0.2, CrashLen: n})
	if err != nil {
		t.Fatal(err)
	}
	const span = 500
	opens := make([]bool, span)
	lost := make([]bool, span)
	anyLost, anyKept := false, false
	for seq := 0; seq < span; seq++ {
		l, o := sched.CrashesMessage("x>y", uint64(seq))
		lost[seq], opens[seq] = l, o
		if o && !l {
			t.Fatalf("seq %d opens a window but is not lost", seq)
		}
		anyLost = anyLost || l
		anyKept = anyKept || !l
	}
	if !anyLost || !anyKept {
		t.Fatalf("degenerate schedule: lost=%v kept=%v", anyLost, anyKept)
	}
	for seq := 0; seq < span; seq++ {
		want := false
		for i := 0; i < n && i <= seq; i++ {
			if opens[seq-i] {
				want = true
				break
			}
		}
		if lost[seq] != want {
			t.Fatalf("seq %d: lost=%v, window membership says %v", seq, lost[seq], want)
		}
	}
	// Same seed agrees; the nil schedule and the zero rate are
	// fault-free; rate 1 loses everything and opens every window.
	again, _ := NewSchedule(42, Profile{Crash: 0.2, CrashLen: n})
	for seq := uint64(0); seq < span; seq++ {
		l, o := again.CrashesMessage("x>y", seq)
		if l != lost[seq] || o != opens[seq] {
			t.Fatalf("same seed disagrees at seq %d", seq)
		}
	}
	var nilSched *Schedule
	if l, _ := nilSched.CrashesMessage("x>y", 0); l {
		t.Fatal("nil schedule crashed")
	}
	always, _ := NewSchedule(7, Profile{Crash: 1})
	for seq := uint64(0); seq < 20; seq++ {
		if l, o := always.CrashesMessage("x>y", seq); !l || !o {
			t.Fatalf("crash=1 at seq %d: lost=%v opens=%v", seq, l, o)
		}
	}
}

// TestCrashWindowDefaultLen checks that CrashLen 0 means
// DefaultCrashLen: any seq within DefaultCrashLen of an opener is
// lost.
func TestCrashWindowDefaultLen(t *testing.T) {
	sched, _ := NewSchedule(11, Profile{Crash: 0.1})
	opener := -1
	for seq := 0; seq < 1000; seq++ {
		if _, o := sched.CrashesMessage("x>y", uint64(seq)); o {
			opener = seq
			break
		}
	}
	if opener < 0 {
		t.Fatal("no window opened in 1000 sends at rate 0.1")
	}
	for i := 0; i < DefaultCrashLen; i++ {
		if l, _ := sched.CrashesMessage("x>y", uint64(opener+i)); !l {
			t.Fatalf("seq %d inside the default window survived", opener+i)
		}
	}
}

// TestScheduledCrashNetwork drives a scheduled network under crash
// windows and checks queue contents against the oracle, plus the
// one-count-per-window obs accounting.
func TestScheduledCrashNetwork(t *testing.T) {
	o := obs.New(nil)
	sched, err := NewSchedule(5, Profile{Crash: 0.25, CrashLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	sched.Obs = o
	net := oneLink(t, 1, Injection{Sched: sched})
	s := net.Start()[0]
	// oneLink's Validate call already exercised seq 0 once; count from
	// here.
	base := o.Faults.Crash.Value()
	const sends = 24
	kept, windows := 0, 0
	for seq := 0; seq < sends; seq++ {
		if l, op := sched.CrashesMessage("x>y", uint64(seq)); !l {
			kept++
		} else if op {
			windows++
		}
		s = step(t, net, s, ioa.Act("snd", "k0"))
	}
	ns := s.(*NetState)
	if got := len(ns.Queue("x", "y")); got != kept {
		t.Fatalf("queue holds %d messages, oracle says %d survive", got, kept)
	}
	if ns.Sent("x", "y") != sends {
		t.Fatalf("sent counter %d, want %d", ns.Sent("x", "y"), sends)
	}
	if windows == 0 || kept == 0 {
		t.Fatalf("degenerate pick: windows=%d kept=%d", windows, kept)
	}
	if got := o.Faults.Crash.Value() - base; got != int64(windows) {
		t.Fatalf("crash counter %d, want one per window = %d", got, windows)
	}
}
