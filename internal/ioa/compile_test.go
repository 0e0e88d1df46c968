package ioa_test

// A compiled composition held to the definitions. Compose resolves every
// Hide and Rename once and steps a composition at its leaves; refEnabled
// and refNext below are §2.1.1–§2.1.3 written out by recursion over the
// automaton's structure — Components(), Renamed.Mapping() and the
// automaton a Hide or a Rename wraps — with no memo, no scratch and no
// routes. On every state a reference BFS reaches, Enabled, Next and the
// borrowed walk must agree with them element for element, in order, and
// so must the numbered steps, AppendEnabled and NextNum: on every
// catalogue system, on random wrapper trees, and on tuples whose nested
// parts are not their compositions' states.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/arbiter/dist"
	"repro/internal/arbiter/mapping"
	"repro/internal/bench"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/ioa"
)

// refTuple returns s's parts when s is a state of c, and nil otherwise.
func refTuple(c *ioa.Composite, s ioa.State) []ioa.State {
	if ts, ok := s.(*ioa.TupleState); ok && ts.Len() == len(c.Components()) {
		return partsOf(ts)
	}
	return nil
}

func partsOf(ts *ioa.TupleState) []ioa.State {
	parts := make([]ioa.State, ts.Len())
	for i := range parts {
		parts[i] = ts.At(i)
	}
	return parts
}

// refEnabled is Enabled by definition: a composition's is its
// components' in component order (Corollary 3), a renaming's is its
// inner automaton's renamed, and a Hide's is its inner automaton's
// followed by the inputs hiding made locally controlled, which are
// enabled everywhere.
func refEnabled(a ioa.Automaton, s ioa.State) []ioa.Action {
	switch w := a.(type) {
	case *ioa.Composite:
		parts := refTuple(w, s)
		if parts == nil {
			return nil
		}
		var out []ioa.Action
		for i, comp := range w.Components() {
			out = append(out, refEnabled(comp, parts[i])...)
		}
		return out
	case *ioa.Renamed:
		var out []ioa.Action
		for _, x := range refEnabled(ioa.Wrapped(w), s) {
			out = append(out, w.Mapping().Apply(x))
		}
		return out
	}
	if inner := ioa.Wrapped(a); inner != nil {
		return append(refEnabled(inner, s), a.Sig().Local().Minus(inner.Sig().Local()).Sorted()...)
	}
	return a.Enabled(s)
}

// refNext is Next by definition: in a composition every component with
// the action in its signature steps and the others stay, the cross
// product first owner most significant; a renaming steps its inner
// automaton by the action's preimage; a Hide steps its inner automaton.
func refNext(a ioa.Automaton, s ioa.State, act ioa.Action) []ioa.State {
	switch w := a.(type) {
	case *ioa.Composite:
		parts := refTuple(w, s)
		if parts == nil || !w.Sig().HasAction(act) {
			return nil
		}
		combos := [][]ioa.State{parts}
		for i, comp := range w.Components() {
			if !comp.Sig().HasAction(act) {
				continue
			}
			var next [][]ioa.State
			for _, combo := range combos {
				for _, st := range refNext(comp, parts[i], act) {
					c := slices.Clone(combo)
					c[i] = st
					next = append(next, c)
				}
			}
			combos = next
		}
		var out []ioa.State
		for _, c := range combos {
			out = append(out, ioa.NewTupleState(c))
		}
		return out
	case *ioa.Renamed:
		if !w.Sig().HasAction(act) {
			return nil
		}
		return refNext(ioa.Wrapped(w), s, w.Mapping().Invert(act))
	}
	if inner := ioa.Wrapped(a); inner != nil {
		return refNext(inner, s, act)
	}
	return ioa.Successors(a, s, act)
}

func stateKeys(states []ioa.State) []string {
	out := make([]string, len(states))
	for i, s := range states {
		out[i] = s.Key()
	}
	return out
}

// agreeAt compares got with the definition of ref at one state, by
// every action of ref's signature, by name and then by number.
func agreeAt(got, ref ioa.Automaton, s ioa.State) error {
	if g, w := got.Enabled(s), refEnabled(ref, s); !slices.Equal(g, w) {
		return fmt.Errorf("state %q: Enabled = %v, definition %v", s.Key(), g, w)
	}
	if acts := ref.Sig().Acts().Sorted(); !slices.Equal(ioa.Number(got).Actions(), acts) {
		return fmt.Errorf("numbering %v, sorted signature %v", ioa.Number(got).Actions(), acts)
	}
	if err := agreeByNumber(got, s); err != nil {
		return err
	}
	var sc ioa.Scratch
	for _, act := range ref.Sig().Acts().Sorted() {
		want := stateKeys(refNext(ref, s, act))
		var lent []string
		got.Next(&sc, s, act, func(nxt ioa.State) bool {
			lent = append(lent, nxt.Key())
			return true
		})
		if g := stateKeys(ioa.Successors(got, s, act)); !slices.Equal(g, want) {
			return fmt.Errorf("state %q: Next by %s = %q, definition %q", s.Key(), act, g, want)
		}
		if !slices.Equal(lent, want) {
			return fmt.Errorf("state %q: Next borrowed by %s = %q, definition %q", s.Key(), act, lent, want)
		}
		sc.Reset()
	}
	return nil
}

// agreeByNumber compares a's numbered steps with its steps by name at
// one state: AppendEnabled appends, to what dst held, the numbers of
// Enabled's names in Enabled's order, and NextNum(i) yields the
// successors of Next(Actions()[i]) in Next's order, on the heap and
// borrowed.
func agreeByNumber(a ioa.Automaton, s ioa.State) error {
	num := ioa.Number(a)
	acts := num.Actions()
	nums := num.AppendEnabled([]int32{-1}, s)
	if nums[0] != -1 {
		return fmt.Errorf("state %q: AppendEnabled overwrote its dst", s.Key())
	}
	named := make([]ioa.Action, 0, len(nums)-1)
	for _, i := range nums[1:] {
		if i < 0 || int(i) >= len(acts) {
			return fmt.Errorf("state %q: AppendEnabled reports number %d of %d actions", s.Key(), i, len(acts))
		}
		named = append(named, acts[i])
	}
	if want := a.Enabled(s); !slices.Equal(named, want) {
		return fmt.Errorf("state %q: AppendEnabled names %v, Enabled %v", s.Key(), named, want)
	}
	var sc ioa.Scratch
	for i, act := range acts {
		want := stateKeys(ioa.Successors(a, s, act))
		var heap, lent []string
		num.NextNum(nil, s, int32(i), func(nxt ioa.State) bool {
			heap = append(heap, nxt.Key())
			return true
		})
		num.NextNum(&sc, s, int32(i), func(nxt ioa.State) bool {
			lent = append(lent, nxt.Key())
			return true
		})
		if !slices.Equal(heap, want) || !slices.Equal(lent, want) {
			return fmt.Errorf("state %q: NextNum(%d) = %q, borrowed %q, Next by %s %q", s.Key(), i, heap, lent, act, want)
		}
		sc.Reset()
	}
	return nil
}

// agreeWithDefinition walks ref's reachable states breadth first by the
// definition, up to limit of them, and returns the first one where got
// disagrees with it, with the states it visited.
func agreeWithDefinition(got, ref ioa.Automaton, limit int) ([]ioa.State, error) {
	acts := ref.Sig().Acts().Sorted()
	seen := make(map[string]bool)
	var order []ioa.State
	for _, s := range ref.Start() {
		if !seen[s.Key()] {
			seen[s.Key()] = true
			order = append(order, s)
		}
	}
	for i := 0; i < len(order); i++ {
		s := order[i]
		if err := agreeAt(got, ref, s); err != nil {
			return order, err
		}
		for _, act := range acts {
			for _, nxt := range refNext(ref, s, act) {
				if !seen[nxt.Key()] && len(order) < limit {
					seen[nxt.Key()] = true
					order = append(order, nxt)
				}
			}
		}
	}
	return order, nil
}

// counters composes k modulo-m counters named prefix0, prefix1, ..., each
// ticking by its own internal action.
func counters(prefix string, k, m int) *ioa.Composite {
	comps := make([]ioa.Automaton, k)
	for i := range comps {
		name := fmt.Sprintf("%s%d", prefix, i)
		d := ioa.NewDef(name)
		d.Start(ioa.KeyState("0"))
		d.Internal(ioa.Act("tick", name), name,
			func(ioa.State) bool { return true },
			func(s ioa.State) ioa.State {
				var v int
				fmt.Sscan(s.Key(), &v)
				return ioa.KeyState(fmt.Sprint((v + 1) % m))
			})
		comps[i] = d.MustBuild()
	}
	return ioa.MustCompose(prefix, comps...)
}

// reversed is a test double: its inner automaton with every successor
// list reversed.
type reversed struct{ ioa.Automaton }

func (r reversed) Next(_ *ioa.Scratch, s ioa.State, a ioa.Action, yield func(ioa.State) bool) bool {
	out := ioa.Successors(r.Automaton, s, a)
	slices.Reverse(out)
	for _, nxt := range out {
		if !yield(nxt) {
			return false
		}
	}
	return true
}

func TestCompiledCompositeMatchesDefinition(t *testing.T) {
	arbiter3 := func(users int) ioa.Automaton {
		a, err := bench.ExploreSystem(3, users)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	tr, err := graph.BinaryTree(4)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := dist.New(tr, tr.NodesOf(graph.Arbiter)[0])
	if err != nil {
		t.Fatal(err)
	}
	certify, err := mapping.NewChain(sys)
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := faults.CrashRestart(counters("in", 2, 3), "in", faults.Reset)
	if err != nil {
		t.Fatal(err)
	}
	tock := func(names ...string) *ioa.Mapping {
		pairs := make(map[ioa.Action]ioa.Action)
		for _, n := range names {
			pairs[ioa.Act("tick", n)] = ioa.Act("tock", n)
		}
		return ioa.MustMapping(pairs)
	}
	systems := map[string]ioa.Automaton{
		"arbiter3/3":     arbiter3(3),
		"arbiter3/4":     arbiter3(4),
		"certify A3'":    certify.A3r,
		"certify A2":     certify.A2,
		"certify f1(A2)": certify.A2r,
		"nested":         ioa.MustCompose("nested", ioa.Hide(counters("left", 2, 3), ioa.NewSet()), ioa.MustRename(counters("ctr", 2, 4), tock("ctr0", "ctr1"))),
		"crash-wrapped":  ioa.MustCompose("crashed", crashed, ioa.MustRename(counters("out", 1, 2), tock("out0"))),
	}
	names := make([]string, 0, len(systems))
	for name := range systems {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		states, err := agreeWithDefinition(systems[name], systems[name], 1<<14)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(states) < 10 {
			t.Fatalf("%s: only %d states compared", name, len(states))
		}
	}

	// Must fail: one leaf's successor lists reversed, deep in a chain.
	build := func(p ioa.Automaton) ioa.Automaton {
		d := ioa.NewDef("driver")
		d.Start(ioa.KeyState("d"))
		d.Output("go", "driver", func(ioa.State) bool { return true }, func(s ioa.State) ioa.State { return s })
		inner := ioa.MustCompose("inner", p, counters("q", 1, 2))
		chain := ioa.MustRename(ioa.Hide(inner, ioa.NewSet()), ioa.MustMapping(map[ioa.Action]ioa.Action{ioa.Act("tick", "q0"): "tock"}))
		return ioa.MustCompose("sys", d.MustBuild(), chain)
	}
	d := ioa.NewDef("p")
	d.Start(ioa.KeyState("p0"))
	d.InputND("go", func(ioa.State) []ioa.State { return []ioa.State{ioa.KeyState("L"), ioa.KeyState("R")} })
	d.Output("idle", "p", func(ioa.State) bool { return false }, func(s ioa.State) ioa.State { return s })
	p := d.MustBuild()
	good, bad := build(p), build(reversed{p})
	if _, err = agreeWithDefinition(bad, good, 100); err == nil {
		t.Fatal("a leaf with its successor lists reversed agrees with the definition")
	}
	if start := good.Start()[0].Key(); !strings.Contains(err.Error(), fmt.Sprintf("state %q: Next by go", start)) {
		t.Fatalf("the disagreement is not reported at the first differing state, the start state %q, by go: %v", start, err)
	}
}

// TestCatalogueMatchesDefinition holds every catalogue system, at three
// users, to the definition: Enabled and Next by name and AppendEnabled
// and NextNum by number, at each of the first 1 500 states a reference
// BFS reaches. The grid has twelve digits, so its numbering (inc10 and
// inc11 sort before inc2) is not its digit order.
func TestCatalogueMatchesDefinition(t *testing.T) {
	for _, sys := range bench.Systems() {
		a, err := sys.Build(bench.Params{Users: 3, GridBase: 3, GridDigits: 12})
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		states, err := agreeWithDefinition(a, a, 1500)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		if len(states) < 2 {
			t.Fatalf("%s: only %d state compared", sys.Name, len(states))
		}
		t.Logf("%s: %d states", sys.Name, len(states))
	}
}

// treeGen derives a random Compose/Hide/Rename tree of fuzzAutomaton
// leaves from shape bytes, at most three wrappers or compositions deep
// and five leaves wide. Leaf k outputs o<k> and listens to a
// byte-chosen subset of the other outputs and to an environment input;
// a Hide hides a byte-chosen subset of its child's actions, inputs
// included; a Rename sends one to fresh names. A composition that turns
// out incompatible (an output hidden below, another component listening
// to it) falls back to its first component, a renaming that turns out
// not injective to its child.
type treeGen struct {
	rng           *rand.Rand
	shape         []byte
	leaves, fresh int
}

const treeLeaves = 5

func (g *treeGen) next() byte {
	if len(g.shape) == 0 {
		return 0
	}
	b := g.shape[0]
	g.shape = g.shape[1:]
	return b
}

func (g *treeGen) tree(depth int) ioa.Automaton {
	b := g.next()
	if depth == 3 || g.leaves == treeLeaves || b%4 == 0 {
		return g.leaf()
	}
	child := g.tree(depth + 1)
	switch b % 4 {
	case 1:
		comps := []ioa.Automaton{child}
		for k := 0; k <= int(b/4)%2 && g.leaves < treeLeaves; k++ {
			comps = append(comps, g.tree(depth+1))
		}
		if c, err := ioa.Compose(fmt.Sprintf("C%d", depth), comps...); err == nil {
			return c
		}
		return child
	case 2:
		return ioa.Hide(child, g.subset(child))
	default:
		pairs := make(map[ioa.Action]ioa.Action)
		for _, a := range g.subset(child).Sorted() {
			g.fresh++
			pairs[a] = ioa.Action(fmt.Sprintf("%s'%d", a, g.fresh))
		}
		if r, err := ioa.Rename(child, ioa.MustMapping(pairs)); err == nil {
			return r
		}
		return child
	}
}

// subset picks actions of a's signature by the bits of the next byte.
func (g *treeGen) subset(a ioa.Automaton) ioa.Set {
	mask := g.next()
	out := ioa.NewSet()
	for i, act := range a.Sig().Acts().Sorted() {
		if mask>>(i%8)&1 == 1 {
			out.Add(act)
		}
	}
	return out
}

func (g *treeGen) leaf() ioa.Automaton {
	k := g.leaves
	g.leaves++
	mask := g.next()
	var in []ioa.Action
	for j := 0; j < treeLeaves; j++ {
		if j != k && mask>>j&1 == 1 {
			in = append(in, ioa.Action(fmt.Sprintf("o%d", j)))
		}
	}
	if mask&0x80 != 0 {
		in = append(in, "env")
	}
	name := fmt.Sprintf("L%d", k)
	return fuzzAutomaton(g.rng, g.next(), name, in, []ioa.Action{ioa.Action(fmt.Sprintf("o%d", k))}, []ioa.Action{ioa.Action("h" + name)})
}

// malformed returns copies of s with one tuple — s itself or one nested
// in it — replaced by a non-tuple or by a tuple one part too long.
func malformed(s ioa.State) []ioa.State {
	ts, ok := s.(*ioa.TupleState)
	if !ok {
		return nil
	}
	parts := partsOf(ts)
	out := []ioa.State{ioa.KeyState("junk"), ioa.NewTupleState(append(slices.Clone(parts), ioa.KeyState("junk")))}
	for i, p := range parts {
		for _, m := range malformed(p) {
			c := slices.Clone(parts)
			c[i] = m
			out = append(out, ioa.NewTupleState(c))
		}
	}
	return out
}

// FuzzNestedComposition holds random wrapper trees to the definition
// from every state a bounded reference BFS reaches, from its raw
// rebuild, and from copies of the first few of them whose tuples are
// not their compositions' states. `go test -fuzz=FuzzNestedComposition ./internal/ioa`.
func FuzzNestedComposition(f *testing.F) {
	f.Add(int64(1), []byte{1, 2, 0, 3, 1, 0, 5, 7, 9})
	f.Add(int64(7), []byte{5, 6, 1, 0, 0x9f, 3, 2, 0, 0, 1, 17, 0, 0x83})
	f.Add(int64(-2), []byte{9, 3, 1, 0, 0x81, 2, 42, 1, 0, 7, 0, 3, 0xff})
	f.Add(int64(3), []byte{2, 0xff, 1, 3, 0x55, 0, 0x8e, 1, 0, 0x8d, 2})
	// Compose(Hide_{env}(Compose(L0, L1)), L2): a hidden input of a
	// composition is enabled everywhere.
	f.Add(int64(5), []byte{1, 2, 1, 0, 0x80, 0, 0, 0x80, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		g := &treeGen{rng: rand.New(rand.NewSource(seed)), shape: shape}
		a := g.tree(0)
		states, err := agreeWithDefinition(a, a, 200)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		for _, s := range states {
			if err := agreeAt(a, a, rawRebuild(s)); err != nil {
				t.Fatalf("%s, rebuilt raw: %v", a.Name(), err)
			}
		}
		for _, s := range states[:min(len(states), 8)] {
			for _, m := range malformed(s) {
				if err := agreeAt(a, a, m); err != nil {
					t.Fatalf("%s, malformed: %v", a.Name(), err)
				}
			}
		}
	})
}
