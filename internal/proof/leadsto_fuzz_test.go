package proof_test

// CheckLeadsTo against an independent oracle. The check decides S ↝ T
// by ltl's fair-escape search over the region S states reach without a
// T action; the oracle knows nothing of regions or components: it
// searches the product of the automaton with an open-obligation bit,
// then looks for a quiescent open node or, from each open node, for a
// T-free closed walk through open nodes that meets every class.

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/ltl"
	"repro/internal/proof"
	"repro/internal/reduce"
)

// fuzzActs is the number of internal actions of a decoded automaton.
const fuzzActs = 4

// A fuzzAut is a small table automaton decoded from bytes, with a
// leads-to condition over it.
type fuzzAut struct {
	a      ioa.Automaton
	states []ioa.State // node i is state si; s0 is the one start state
	acts   []ioa.Action
	k      int      // classes c0..c(k-1); action aj is in class j mod k
	steps  [][3]int // (from, action, to)
	sMask  byte     // bit i set: S holds at node i
	tMask  byte     // bit j set: aj is in T
}

// decodeAut reads, as ltl's FuzzFairCycle does, n = 1 + data[0]%6
// states, k = 1 + data[1]%3 classes and one step per byte triple
// (from, action, to), at most 24, after a header that here also holds
// the S mask data[2] and the T mask data[3]. Only s0 is a start state.
func decodeAut(data []byte) fuzzAut {
	var hdr [4]byte
	copy(hdr[:], data)
	n := 1 + int(hdr[0])%6
	f := fuzzAut{k: 1 + int(hdr[1])%3, sMask: hdr[2], tMask: hdr[3]}
	for i := range n {
		f.states = append(f.states, ioa.KeyState(fmt.Sprintf("s%d", i)))
	}
	members := make([][]ioa.Action, f.k)
	for j := range fuzzActs {
		f.acts = append(f.acts, ioa.Act(fmt.Sprintf("a%d", j)))
		members[j%f.k] = append(members[j%f.k], f.acts[j])
	}
	parts := make([]ioa.Class, f.k)
	for c := range parts {
		parts[c] = ioa.Class{Name: fmt.Sprintf("c%d", c), Actions: ioa.NewSet(members[c]...)}
	}
	var steps []ioa.Step
	for rest := data[min(len(data), 4):]; len(rest) >= 3 && len(steps) < 24; rest = rest[3:] {
		st := [3]int{int(rest[0]) % n, int(rest[1]) % fuzzActs, int(rest[2]) % n}
		f.steps = append(f.steps, st)
		steps = append(steps, ioa.Step{From: f.states[st[0]], Act: f.acts[st[1]], To: f.states[st[2]]})
	}
	f.a = ioa.MustTable("fuzz", ioa.MustSignature(nil, nil, f.acts), f.states[:1], steps, parts)
	return f
}

func (f fuzzAut) node(s ioa.State) int {
	return slices.IndexFunc(f.states, func(t ioa.State) bool { return t.Key() == s.Key() })
}

func (f fuzzAut) inS(v int) bool          { return f.sMask>>v&1 == 1 }
func (f fuzzAut) inT(act ioa.Action) bool { return f.tMask>>slices.Index(f.acts, act)&1 == 1 }

func (f fuzzAut) cond() *proof.LeadsTo {
	return &proof.LeadsTo{Name: "S↝T",
		S: func(s ioa.State) bool { return f.inS(f.node(s)) },
		T: func(act ioa.Action) bool { return f.inT(act) }}
}

// oracle decides S ↝ T on the obligation product. A product node is
// (state, open): after step (s, a, s′) the obligation is open iff S
// holds at s′, or it was open and a is not in T. The condition fails
// iff some reachable open node enables no action, or some reachable
// open node lies on a T-free closed walk through open nodes that meets
// every class — by an action on the walk or a state disabling it, the
// breadth-first search over (node, classes met) of FuzzFairCycle,
// whose witness walk must pass ltl.FairSustainable.
func (f fuzzAut) oracle(t *testing.T) (holds bool) {
	n, full := len(f.states), 1<<f.k-1
	open := make([]bool, n) // (v, open) reachable
	type pnode struct {
		v    int
		open bool
	}
	first := pnode{0, f.inS(0)}
	seen := map[pnode]bool{first: true}
	for queue := []pnode{first}; len(queue) > 0; queue = queue[1:] {
		p := queue[0]
		open[p.v] = open[p.v] || p.open
		for _, st := range f.steps {
			if st[0] != p.v {
				continue
			}
			q := pnode{st[2], f.inS(st[2]) || p.open && !f.inT(f.acts[st[1]])}
			if !seen[q] {
				seen[q] = true
				queue = append(queue, q)
			}
		}
	}
	disabled := make([]int, n)
	for v := range disabled {
		disabled[v] = full
	}
	for _, st := range f.steps {
		disabled[st[0]] &^= 1 << (st[1] % f.k)
	}
	for s := range n {
		if !open[s] {
			continue
		}
		if disabled[s] == full {
			return false // quiescent with the obligation open
		}
		type mnode struct{ v, met int }
		type back struct {
			prev mnode
			step [3]int
		}
		start := mnode{s, disabled[s]}
		prev := map[mnode]back{start: {}}
		for queue := []mnode{start}; len(queue) > 0; queue = queue[1:] {
			for _, st := range f.steps {
				if st[0] != queue[0].v || !open[st[2]] || f.inT(f.acts[st[1]]) {
					continue
				}
				next := mnode{st[2], queue[0].met | 1<<(st[1]%f.k) | disabled[st[2]]}
				if _, ok := prev[next]; ok {
					continue
				}
				prev[next] = back{queue[0], st}
				if next != (mnode{s, full}) {
					queue = append(queue, next)
					continue
				}
				var acts []ioa.Action
				states := []ioa.State{f.states[s]}
				for m := next; ; m = prev[m].prev {
					acts = append(acts, f.acts[prev[m].step[1]])
					states = append(states, f.states[prev[m].step[0]])
					if prev[m].prev == start {
						break
					}
				}
				slices.Reverse(acts)
				slices.Reverse(states)
				if !ltl.FairSustainable(f.a, acts, states) {
					t.Fatalf("oracle walk %s is not fair-sustainable", ioa.TraceString(acts))
				}
				return false
			}
		}
	}
	return true
}

// FuzzLeadsTo holds CheckLeadsTo's verdict to the obligation-product
// oracle, and checks every lasso it returns: stem and cycle replay, no
// T action follows the lasso's last S state, and the cycle (at a
// quiescent end, its one state) is fair-sustainable.
func FuzzLeadsTo(f *testing.F) {
	// spin: a0 (class c0) flips s0↔s1, a1 (c1) leads from either to
	// s2; S = {s0}, T = {a1}. The spin starves a1, enabled all along,
	// so fairness forces a1: holds.
	spin := []byte{2, 1, 0b001, 0b0010, 0, 0, 1, 1, 0, 0, 0, 1, 2, 1, 1, 2}
	f.Add(spin)
	// T = {a2}, never enabled: refuted at the quiescent s2.
	f.Add(append([]byte{2, 1, 0b001, 0b0100}, spin[4:]...))
	// One class: the spin alone is fair, so a1 may never run: refuted
	// by a cycle.
	f.Add(append([]byte{2, 0, 0b001, 0b0010}, spin[4:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		fa := decodeAut(data)
		c := fa.cond()
		ls, err := proof.CheckLeadsTo(context.Background(), fa.a, explore.Options{}, c)
		if err != nil {
			t.Fatal(err)
		}
		l := ls[0]
		if want := fa.oracle(t); (l == nil) != want {
			t.Fatalf("CheckLeadsTo holds=%v, obligation product holds=%v", l == nil, want)
		}
		if l == nil {
			return
		}
		if err := reduce.ReplayTrace(fa.a, l.Stem); err != nil {
			t.Fatalf("stem: %v", err)
		}
		cycle := &ioa.Execution{Auto: fa.a, States: l.CycleStates, Acts: l.Cycle}
		if err := reduce.ReplayTrace(fa.a, cycle); err != nil {
			t.Fatalf("cycle: %v", err)
		}
		if first, last := l.CycleStates[0], l.CycleStates[len(l.CycleStates)-1]; first.Key() != l.Stem.Last().Key() || last.Key() != first.Key() {
			t.Fatal("the cycle must start and end where the stem ends")
		}
		if !ltl.FairSustainable(fa.a, l.Cycle, l.CycleStates) {
			t.Fatalf("cycle %s is not fair-sustainable", ioa.TraceString(l.Cycle))
		}
		states := append(slices.Clone(l.Stem.States), l.CycleStates[1:]...)
		acts := append(slices.Clone(l.Stem.Acts), l.Cycle...)
		lastS := -1
		for i, s := range states {
			if c.S(s) {
				lastS = i
			}
		}
		if lastS < 0 {
			t.Fatal("the lasso never meets S")
		}
		for _, act := range acts[lastS:] {
			if c.T(act) {
				t.Fatalf("T action %s after the last S state of stem %s, cycle %s", act,
					ioa.TraceString(l.Stem.Acts), ioa.TraceString(l.Cycle))
			}
		}
	})
}
