package ltl_test

// The SCC-based cycle search against an independent oracle. FindCycle
// decides fair cycles one strongly connected component at a time; the
// oracle below knows nothing of components: it searches the product of
// the graph with the set of fairness classes met so far. The rounds
// table stabilize.Certify computes on the same components is held to
// plain value iteration.

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/domain"
	"repro/internal/ioa"
	"repro/internal/ltl"
	"repro/internal/stabilize"
)

// fuzzActs is the number of internal actions of a decoded automaton.
const fuzzActs = 4

// A fuzzAut is a small table automaton decoded from bytes.
type fuzzAut struct {
	a      ioa.Automaton
	states []ioa.State // node i is state si
	k      int         // classes c0..c(k-1); action aj is in class j mod k
	steps  [][3]int    // (from, action, to)
	mask   byte        // bit i set: node i is inside Within and outside L
}

// decodeAut reads n = 1 + data[0]%6 states, k = 1 + data[1]%3
// classes, the node mask data[2], and one step per following byte
// triple (from, action, to), at most 24.
func decodeAut(data []byte) fuzzAut {
	var hdr [3]byte
	copy(hdr[:], data)
	n := 1 + int(hdr[0])%6
	f := fuzzAut{k: 1 + int(hdr[1])%3, mask: hdr[2]}
	for i := range n {
		f.states = append(f.states, ioa.KeyState(fmt.Sprintf("s%d", i)))
	}
	acts := make([]ioa.Action, fuzzActs)
	members := make([][]ioa.Action, f.k)
	for j := range acts {
		acts[j] = ioa.Act(fmt.Sprintf("a%d", j))
		members[j%f.k] = append(members[j%f.k], acts[j])
	}
	parts := make([]ioa.Class, f.k)
	for c := range parts {
		parts[c] = ioa.Class{Name: fmt.Sprintf("c%d", c), Actions: ioa.NewSet(members[c]...)}
	}
	var steps []ioa.Step
	for rest := data[min(len(data), 3):]; len(rest) >= 3 && len(steps) < 24; rest = rest[3:] {
		st := [3]int{int(rest[0]) % n, int(rest[1]) % fuzzActs, int(rest[2]) % n}
		f.steps = append(f.steps, st)
		steps = append(steps, ioa.Step{From: f.states[st[0]], Act: acts[st[1]], To: f.states[st[2]]})
	}
	f.a = ioa.MustTable("fuzz", ioa.MustSignature(nil, nil, acts), f.states, steps, parts)
	return f
}

func (f fuzzAut) inMask(v int) bool { return f.mask>>v&1 == 1 }

// cycleThrough reports, per node s, whether a closed walk of at least
// one step from s stays inside within (nil: everywhere) and, when
// fair, meets every class. It is a breadth-first search over pairs
// (node, classes met): visiting a node adds the classes disabled
// there, taking an edge adds its action's class.
func (f fuzzAut) cycleThrough(within func(int) bool, fair bool) []bool {
	n, full := len(f.states), 1<<f.k-1
	disabled := make([]int, n)
	for v := range disabled {
		disabled[v] = full
	}
	for _, st := range f.steps {
		disabled[st[0]] &^= 1 << (st[1] % f.k)
	}
	in := func(v int) bool { return within == nil || within(v) }
	out := make([]bool, n)
	for s := range n {
		if !in(s) {
			continue
		}
		first := [2]int{s, disabled[s]}
		if !fair {
			first[1] = full
		}
		seen := map[[2]int]bool{}
		for queue := [][2]int{first}; len(queue) > 0 && !out[s]; queue = queue[1:] {
			for _, st := range f.steps {
				if st[0] != queue[0][0] || !in(st[2]) {
					continue
				}
				next := [2]int{st[2], queue[0][1] | 1<<(st[1]%f.k) | disabled[st[2]]}
				out[s] = out[s] || next == [2]int{s, full}
				if !seen[next] {
					seen[next] = true
					queue = append(queue, next)
				}
			}
		}
	}
	return out
}

// demonicRounds is the rounds-to-legitimacy table by value iteration:
// 0 on L, then |V| rounds in which a state outside L whose successors
// are all settled takes 1 + their maximum. States still unsettled are
// -1.
func (f fuzzAut) demonicRounds(legit func(int) bool) []int {
	n := len(f.states)
	r := make([]int, n)
	for v := range r {
		if !legit(v) {
			r[v] = -1
		}
	}
	for range n {
		next := slices.Clone(r)
		for v := range n {
			if legit(v) {
				continue
			}
			for _, st := range f.steps {
				if st[0] != v {
					continue
				}
				if r[st[2]] < 0 {
					next[v] = -1
					break
				}
				next[v] = max(next[v], r[st[2]]+1)
			}
		}
		r = next
	}
	return r
}

// figureEight: a (a0, class c0) goes s0→s1→s0, b (a1, class c1) goes
// s0→s2→s0, and a at s2 or b at s1 leads to the dead state s3. Both
// classes are enabled everywhere but s3, so neither simple cycle is
// fair; the figure-eight a a b b is. The mask is "not dead".
var figureEight = []byte{3, 1, 0b0111,
	0, 0, 1, 1, 0, 0, 0, 1, 2, 2, 1, 0, 2, 0, 3, 1, 1, 3}

// spinExit: spin (a0, class c0) flips s0↔s1 and exit (a1, class c1)
// leads from either into s2. The spin cycle starves exit. The mask is
// {s0, s1}.
var spinExit = []byte{2, 1, 0b011,
	0, 0, 1, 1, 0, 0, 0, 1, 2, 1, 1, 2}

// TestFindCycleFigureEight: the only fair cycle outside the dead state
// runs through both simple cycles, neither of which is fair alone.
func TestFindCycleFigureEight(t *testing.T) {
	f := decodeAut(figureEight)
	g, err := ltl.BuildGraphCanon(context.Background(), f.a, f.states, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	start, acts, nodes, err := g.FindCycle(context.Background(), f.a, ltl.CycleOptions{Fair: true, Within: f.inMask})
	if err != nil {
		t.Fatal(err)
	}
	if acts == nil {
		t.Fatal("fair search missed the figure-eight a a b b")
	}
	checkCycleValid(t, f.a, g, start, acts, nodes)
	if !ltl.FairSustainable(f.a, acts, g.PathStates(nodes)) {
		t.Fatalf("cycle %v is not fair-sustainable", ioa.TraceString(acts))
	}
}

// FuzzFairCycle holds FindCycle, in both fairness modes, with and
// without Within, to the product-graph oracle — existence and the start
// node — and replays every cycle it returns. On the same automaton,
// Certify with L the complement of the mask must report value
// iteration's rounds table, and converge exactly when there is neither
// a deadlock nor a fair cycle outside L.
func FuzzFairCycle(f *testing.F) {
	f.Add(figureEight)
	f.Add(spinExit)
	f.Fuzz(func(t *testing.T, data []byte) {
		fa := decodeAut(data)
		ctx := context.Background()
		g, err := ltl.BuildGraphCanon(ctx, fa.a, fa.states, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, within := range []func(int) bool{nil, fa.inMask} {
			for _, fair := range []bool{false, true} {
				start, acts, nodes, err := g.FindCycle(ctx, fa.a, ltl.CycleOptions{Fair: fair, Within: within})
				if err != nil {
					t.Fatal(err)
				}
				if want := slices.Index(fa.cycleThrough(within, fair), true); start != want {
					t.Fatalf("within=%v fair=%v: start %d, oracle's least node on a cycle %d",
						within != nil, fair, start, want)
				}
				if acts == nil {
					continue
				}
				checkCycleValid(t, fa.a, g, start, acts, nodes)
				for _, v := range nodes {
					if within != nil && !within(v) {
						t.Fatalf("cycle %v leaves Within at node %d", nodes, v)
					}
				}
				if fair && !ltl.FairSustainable(fa.a, acts, g.PathStates(nodes)) {
					t.Fatalf("fair search returned unfair cycle %v", ioa.TraceString(acts))
				}
			}
		}

		legit := func(v int) bool { return !fa.inMask(v) }
		node := make(map[string]int, len(fa.states))
		for i, s := range fa.states {
			node[s.Key()] = i
		}
		// Sequential closure of an envelope listing every state keeps
		// its order, so Rounds is indexed by node.
		cert, err := stabilize.Certify(ctx, fa.a, func(s ioa.State) bool { return legit(node[s.Key()]) },
			domain.Explicit("all", fa.states), stabilize.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if want := fa.demonicRounds(legit); !slices.Equal(cert.Rounds, want) {
			t.Fatalf("rounds %v, value iteration %v", cert.Rounds, want)
		}
		deadlock := false
		for v := range fa.states {
			deadlock = deadlock || !legit(v) && !slices.ContainsFunc(fa.steps, func(st [3]int) bool { return st[0] == v })
		}
		fairCycle := slices.Contains(fa.cycleThrough(fa.inMask, true), true)
		if cert.Converges != (!deadlock && !fairCycle) {
			t.Fatalf("converges=%v with deadlock=%v, fair cycle outside L=%v", cert.Converges, deadlock, fairCycle)
		}
	})
}
