package reduce

// Ample-set partial-order reduction via strong stubborn sets over an
// automatic structural analysis of the automaton tree.
//
// NewPOR walks the closed system through ioa.Peel (Hide keeps action
// names, Rename contributes its Mapping) down to its leaves — the
// non-composite component automata — and records, for every top-level
// action, its footprint: the set of leaves whose signature contains
// the action (under the leaf's own local name). Two actions with
// disjoint footprints touch disjoint components of the tuple state,
// so they commute in both orders and neither can change the other's
// enabledness: leaf guards read only their own leaf's state, and a
// step updates exactly the footprint leaves. Footprints may be
// refined per leaf by a slot function (Options.Slots) when a single
// leaf automaton is really a bundle of independent resources — the
// distributed arbiter's message system is one Prog holding every
// channel queue, and slotting its actions by (from, to) keeps traffic
// on distinct channels independent.
//
// Per state s, a Selector builds candidate stubborn sets T by closure
// from each enabled seed action, in sorted action order:
//
//   - enabled a ∈ T pulls in every dependent action (all actions
//     sharing a (leaf, slot) with a), so anything left outside T is
//     independent of a;
//   - disabled a ∈ T pulls in a necessary enabling set: a is disabled
//     because the guard of the unique leaf that locally controls it is
//     false (inputs never block), and only same-(leaf, slot) actions
//     can flip that guard, so that slot's action group joins T.
//
// The ample set is T ∩ enabled(s). A candidate is admitted only under
// the standard conditions:
//
//   C0  ample is non-empty (the seed is enabled) — and the selector
//       falls back to full expansion when no candidate survives;
//   C1  T is closed as above (strong stubbornness);
//   C2  every ample action is invisible. Visible defaults to the
//       top-level external actions; checked invariants must only
//       change truth value across visible actions (true for this
//       repository's predicates, and enforced differentially);
//   C3  the BFS cycle proviso: every successor of s under every ample
//       action must be "fresh" under the engine's oracle — not yet
//       expanded and not the state currently being expanded (the
//       engines expand in dense ID order and report seen(t) as
//       "interned with ID ≤ the expansion cursor"). A reduced
//       expansion therefore only defers work onto states that will
//       still be expanded later, so an action cannot be postponed
//       around a cycle: walking any cycle of the reduced graph, the
//       state expanded last sees its cycle successor already expanded
//       (or sees itself, on a self-loop) and C3 forces a full
//       expansion there. Merely-discovered frontier states stay fresh,
//       which is what lets reduction proceed inside a BFS level; the
//       proviso is a function of (state, expansion prefix), preserving
//       determinism in both engines.
//
// Among admitted candidates the selector keeps the smallest ample set
// (earliest seed on ties), and returns the full enabled set when no
// candidate is strictly smaller — so the choice is a deterministic
// function of (state, store contents), which keeps both engines'
// level-synchronized determinism arguments intact.

import (
	"fmt"
	"sort"

	"repro/internal/ioa"
)

// Options parameterizes NewPOR.
type Options struct {
	// Slots refines dependency within named leaves. Keyed by the leaf
	// automaton's Name(); the function maps each leaf-local action to a
	// slot identifier. Contract: within that leaf, actions mapped to
	// different slots must commute and must not affect one another's
	// enabledness (they touch disjoint parts of the leaf state). Leaves
	// without an entry use a single slot — every pair of its actions is
	// treated as dependent, which is always sound.
	Slots map[string]func(ioa.Action) string
	// Rules refines the dependency relation and the necessary enabling
	// sets within named leaves, keyed by leaf Name(). A leaf with rules
	// ignores its Slots entry. Rules encode semantic knowledge of the
	// leaf's guards and effects that the structural analysis cannot
	// see; their contracts are stated on LeafRules, and the
	// differential battery checks the resulting reductions against the
	// unreduced oracle.
	Rules map[string]LeafRules
	// Visible overrides the default visibility used by condition C2.
	// nil marks every top-level external action visible — sound for any
	// property, but on systems whose components carry their external
	// interface everywhere (the arbiter tree, where each node serves a
	// user) it makes every closure abort and yields no reduction.
	// Supplying Visible narrows C2 to the actions that can change the
	// truth value of the properties actually checked on the reduced
	// graph: every predicate evaluated on reduced reach sets must be
	// invariant under all actions reported invisible. The differential
	// battery enforces this contract against the unreduced oracle.
	Visible func(ioa.Action) bool
	// UnsoundNoProviso drops condition C3. It exists solely for the
	// negative arm of the differential battery and the CI must-fail
	// fixture, which demonstrate that without the cycle proviso the
	// reduced exploration loses reachable states. Never set it in
	// production paths.
	UnsoundNoProviso bool
}

// LeafRules refines the analysis of one leaf automaton beyond the
// slot partition. Both functions see leaf-LOCAL action names.
type LeafRules struct {
	// Dep reports whether two of the leaf's actions are dependent:
	// it must return true whenever, in some reachable leaf state, one
	// can disable the other or executing them in the two orders yields
	// different states. Returning true spuriously costs reduction,
	// never soundness. Dep must be symmetric and is never called with
	// equal arguments (an action is always dependent on itself).
	Dep func(a, b ioa.Action) bool
	// NES returns a necessary enabling set for local action la,
	// disabled in leaf state ls: a set of leaf actions containing
	// every action that could be the FIRST step of any sequence that
	// enables la. An empty (non-nil) set asserts la can never become
	// enabled. Returning nil falls back to the slot group (all of the
	// leaf's actions in la's slot). The choice may depend on ls —
	// picking the false guard conjunct with the smallest writer set is
	// what makes stubborn sets converge instead of swallowing the
	// whole system.
	NES func(la ioa.Action, ls ioa.State) []ioa.Action
}

// HolderVisibility is a C2 visibility predicate for the arbiter
// systems when the checked properties concern resource possession
// (mutual exclusion, who may hold): only grant and return actions move
// the resource between the arbiter and a user, so request traffic and
// the internal tree messages are invisible. Do not use it when a
// checked predicate reads a user's waiting phase or an arbiter node's
// request flags. The single-parameter test keeps the arbiter tree's
// internal grant(x,y) forwarding actions (which carry two node
// parameters after renaming) invisible: they move the resource
// between arbiters, not to a user.
func HolderVisibility(a ioa.Action) bool {
	switch a.Base() {
	case "grant", "return":
		return len(a.Params()) == 1
	}
	return false
}

// ownerRef locates where one top-level action is locally controlled:
// the owning leaf and the precomputed necessary-enabling set (the
// action's slot group in that leaf, as indices into POR.acts).
type ownerRef struct {
	leaf  int
	local ioa.Action
	nes   []int
}

// porLeaf is one analyzed leaf: a non-composite automaton reached
// through the wrapper/composition tree.
type porLeaf struct {
	auto ioa.Automaton
	// path holds the tuple indices from the root state to this leaf's
	// state (wrappers add no state layer).
	path []int
	// rules and toTop are set when Options.Rules covers this leaf:
	// refined semantics plus the local-name → top-level-index
	// translation for dynamic NES answers.
	rules *LeafRules
	toTop map[ioa.Action]int
}

// POR is the reusable structural analysis of one closed automaton. It
// is immutable after NewPOR and safe to share; mint one Selector per
// exploring goroutine via NewSelector.
type POR struct {
	auto   ioa.Automaton
	leaves []porLeaf
	// acts is the sorted top-level action universe; all per-action
	// tables below are indexed by position in acts.
	acts []ioa.Action
	idx  map[ioa.Action]int
	// dep[j] lists the actions dependent on acts[j]: those sharing a
	// (leaf, slot) with it (including j itself). Sorted.
	dep [][]int
	// owners[j] lists the leaves that locally control acts[j] (at most
	// one by composition compatibility, but kept as a slice so an
	// inconsistent analysis degrades to conservatism, not unsoundness).
	owners  [][]ownerRef
	visible []bool
	proviso bool
}

// NewPOR analyzes a for ample-set reduction. The automaton must be a
// closed system: residual top-level input actions mean the environment
// could interleave anywhere, and no ample argument applies.
func NewPOR(a ioa.Automaton, opts Options) (*POR, error) {
	sig := a.Sig()
	if n := sig.Inputs().Len(); n > 0 {
		return nil, fmt.Errorf("reduce: POR requires a closed system; %s has %d input actions", a.Name(), n)
	}
	p := &POR{auto: a, proviso: !opts.UnsoundNoProviso}
	identity := func(x ioa.Action) ioa.Action { return x }
	type liftedLeaf struct {
		leaf porLeaf
		up   func(ioa.Action) ioa.Action
	}
	var lifted []liftedLeaf
	var walk func(cur ioa.Automaton, path []int, up func(ioa.Action) ioa.Action)
	walk = func(cur ioa.Automaton, path []int, up func(ioa.Action) ioa.Action) {
		for {
			inner, m, ok := ioa.Peel(cur)
			if !ok {
				break
			}
			if m != nil {
				prev, mm := up, m
				up = func(x ioa.Action) ioa.Action { return prev(mm.Apply(x)) }
			}
			cur = inner
		}
		if c, ok := cur.(*ioa.Composite); ok {
			for i, comp := range c.Components() {
				sub := make([]int, len(path)+1)
				copy(sub, path)
				sub[len(path)] = i
				walk(comp, sub, up)
			}
			return
		}
		lifted = append(lifted, liftedLeaf{leaf: porLeaf{auto: cur, path: path}, up: up})
	}
	walk(a, nil, identity)
	for _, l := range lifted {
		p.leaves = append(p.leaves, l.leaf)
	}

	p.acts = sig.Acts().Sorted()
	p.idx = make(map[ioa.Action]int, len(p.acts))
	for j, act := range p.acts {
		p.idx[act] = j
	}
	p.dep = make([][]int, len(p.acts))
	p.owners = make([][]ownerRef, len(p.acts))
	p.visible = make([]bool, len(p.acts))
	for j, act := range p.acts {
		if opts.Visible != nil {
			p.visible[j] = opts.Visible(act)
		} else {
			p.visible[j] = sig.IsExternal(act)
		}
	}

	// Per leaf: group the leaf's actions by slot (in top-level index
	// space), then fold the groups into the dependency lists and the
	// owners' necessary-enabling sets.
	type slotted struct {
		group map[string][]int
		mine  []int // this leaf's action indices, with their slot keys
		keys  []string
	}
	depSets := make([]map[int]struct{}, len(p.acts))
	addDep := func(j, b int) {
		if depSets[j] == nil {
			depSets[j] = make(map[int]struct{})
		}
		depSets[j][b] = struct{}{}
	}
	for i, l := range p.leaves {
		if r, ok := opts.Rules[l.auto.Name()]; ok {
			// Refined leaf: pairwise dependency from r.Dep, dynamic NES
			// from r.NES (with the full leaf group as fallback).
			rc := r
			p.leaves[i].rules = &rc
			p.leaves[i].toTop = make(map[ioa.Action]int)
			lsig := l.auto.Sig()
			var mine []int
			var locals []ioa.Action
			for _, la := range lsig.Acts().Sorted() {
				top := lifted[i].up(la)
				j, ok := p.idx[top]
				if !ok {
					continue // removed environment input, as below
				}
				p.leaves[i].toTop[la] = j
				mine = append(mine, j)
				locals = append(locals, la)
				if lsig.IsLocal(la) {
					p.owners[j] = append(p.owners[j], ownerRef{leaf: i, local: la, nes: mine})
				}
			}
			// Rebind every owner's fallback NES to the completed group.
			for _, j := range mine {
				for oi := range p.owners[j] {
					if p.owners[j][oi].leaf == i {
						p.owners[j][oi].nes = mine
					}
				}
				addDep(j, j)
			}
			for x := range mine {
				for y := x + 1; y < len(mine); y++ {
					if rc.Dep == nil || rc.Dep(locals[x], locals[y]) {
						addDep(mine[x], mine[y])
						addDep(mine[y], mine[x])
					}
				}
			}
			continue
		}
		slotFn := opts.Slots[l.auto.Name()]
		lsig := l.auto.Sig()
		sl := slotted{group: make(map[string][]int)}
		for _, la := range lsig.Acts().Sorted() {
			top := lifted[i].up(la)
			j, ok := p.idx[top]
			if !ok {
				// A leaf action missing from the top-level signature
				// was removed by a closed-world wrapper: a residual
				// environment input that can never fire during
				// exploration. It needs no expansion, cannot change
				// any leaf's state, and so is safely outside the
				// dependency/NES universe.
				continue
			}
			key := ""
			if slotFn != nil {
				key = slotFn(la)
			}
			sl.group[key] = append(sl.group[key], j)
			sl.mine = append(sl.mine, j)
			sl.keys = append(sl.keys, key)
			if lsig.IsLocal(la) {
				p.owners[j] = append(p.owners[j], ownerRef{leaf: i, local: la})
			}
		}
		for k, j := range sl.mine {
			grp := sl.group[sl.keys[k]]
			if depSets[j] == nil {
				depSets[j] = make(map[int]struct{})
			}
			for _, b := range grp {
				depSets[j][b] = struct{}{}
			}
			for oi := range p.owners[j] {
				ow := &p.owners[j][oi]
				if ow.leaf == i && ow.nes == nil {
					ow.nes = grp
				}
			}
		}
	}
	for j := range p.acts {
		if depSets[j] == nil {
			p.dep[j] = []int{j}
			continue
		}
		out := make([]int, 0, len(depSets[j]))
		for b := range depSets[j] {
			out = append(out, b)
		}
		sort.Ints(out)
		p.dep[j] = out
	}
	return p, nil
}

// NewSelector mints a per-goroutine ample-set selector. The returned
// function matches explore.Ampler: given a state, its sorted enabled
// actions, and a freshness oracle over the explorer's store, it
// returns the subset to expand (aliasing either the input slice or an
// internal buffer reused by the next call). Selectors are
// deterministic functions of (state, store contents) and must not be
// shared across goroutines.
func (p *POR) NewSelector() func(s ioa.State, enabled []ioa.Action, seen func(ioa.State) bool) []ioa.Action {
	sel := &selector{
		p:      p,
		mark:   make([]uint32, len(p.acts)),
		enab:   make([]uint32, len(p.acts)),
		leafSt: make([]ioa.State, len(p.leaves)),
		leafSV: make([]uint32, len(p.leaves)),
		leafEn: make([][]ioa.Action, len(p.leaves)),
		leafEV: make([]uint32, len(p.leaves)),
	}
	return sel.ample
}

// selector holds one goroutine's scratch state: stamp-versioned marks
// (no clearing between states), the closure worklist, and per-state
// leaf projection/enabledness caches.
type selector struct {
	p      *POR
	mark   []uint32 // closure membership, versioned by stamp
	enab   []uint32 // enabledness at the current state, versioned by estamp
	stamp  uint32
	estamp uint32
	work   []int
	nesBuf []int
	amp    []int
	best   []int
	out    []ioa.Action
	enIdx  []int
	leafSt []ioa.State
	leafSV []uint32
	leafEn [][]ioa.Action
	leafEV []uint32
}

func (sel *selector) ample(s ioa.State, enabled []ioa.Action, seen func(ioa.State) bool) []ioa.Action {
	p := sel.p
	if len(p.leaves) < 2 || len(enabled) < 2 {
		return enabled
	}
	sel.estamp++
	sel.enIdx = sel.enIdx[:0]
	for _, a := range enabled {
		j, ok := p.idx[a]
		if !ok {
			// An action outside the analyzed signature: the analysis
			// does not cover this automaton — never reduce.
			return enabled
		}
		if sel.enab[j] != sel.estamp {
			sel.enab[j] = sel.estamp
			sel.enIdx = append(sel.enIdx, j)
		}
	}
	distinct := len(sel.enIdx)
	sel.best = sel.best[:0]
	haveBest := false
	for _, seed := range sel.enIdx {
		if !sel.closure(s, seed) {
			continue
		}
		// amp = T ∩ enabled, in sorted order.
		sel.amp = sel.amp[:0]
		for _, j := range sel.enIdx {
			if sel.mark[j] == sel.stamp {
				sel.amp = append(sel.amp, j)
			}
		}
		if len(sel.amp) >= distinct {
			continue // no reduction from this seed
		}
		if haveBest && len(sel.amp) >= len(sel.best) {
			continue
		}
		if p.proviso && !sel.allFresh(s, seen) {
			continue // C3
		}
		sel.best = append(sel.best[:0], sel.amp...)
		haveBest = true
		if len(sel.best) == 1 {
			break // cannot do better
		}
	}
	if !haveBest {
		return enabled // C0 fallback: full expansion
	}
	sel.out = sel.out[:0]
	for _, j := range sel.best {
		sel.out = append(sel.out, p.acts[j])
	}
	return sel.out
}

// closure grows the stubborn set from seed, marking members with a
// fresh stamp. It returns false when the candidate must be abandoned:
// an enabled member is visible (C2), or a disabled member's blocking
// leaf cannot be identified (conservative bail-out).
func (sel *selector) closure(s ioa.State, seed int) bool {
	p := sel.p
	sel.stamp++
	sel.work = sel.work[:0]
	sel.mark[seed] = sel.stamp
	sel.work = append(sel.work, seed)
	for qi := 0; qi < len(sel.work); qi++ {
		j := sel.work[qi]
		if sel.enab[j] == sel.estamp {
			if p.visible[j] {
				return false
			}
			for _, b := range p.dep[j] {
				if sel.mark[b] != sel.stamp {
					sel.mark[b] = sel.stamp
					sel.work = append(sel.work, b)
				}
			}
			continue
		}
		nes := sel.blockerNES(s, j)
		if nes == nil {
			return false
		}
		for _, b := range nes {
			if sel.mark[b] != sel.stamp {
				sel.mark[b] = sel.stamp
				sel.work = append(sel.work, b)
			}
		}
	}
	return true
}

// blockerNES finds the leaf whose false guard disables acts[j] at s
// and returns that slot's necessary enabling set, or nil when no
// blocking owner can be identified (top-level inputs are rejected at
// construction, so a disabled action must have a disabled local
// owner; structural surprises degrade to a full expansion, never to
// an unsound one).
func (sel *selector) blockerNES(s ioa.State, j int) []int {
	for oi := range sel.p.owners[j] {
		ow := &sel.p.owners[j][oi]
		ls, ok := sel.leafState(s, ow.leaf)
		if !ok {
			return nil
		}
		if !sel.leafEnabled(ow.leaf, ls, ow.local) {
			lf := &sel.p.leaves[ow.leaf]
			if lf.rules != nil && lf.rules.NES != nil {
				if nes := lf.rules.NES(ow.local, ls); nes != nil {
					out := sel.nesBuf
					if out == nil {
						out = make([]int, 0, 8)
					}
					out = out[:0]
					for _, la := range nes {
						// Local actions missing from the top level are
						// removed environment inputs: they can never
						// fire, so they can never be the first enabler.
						if b, ok := lf.toTop[la]; ok {
							out = append(out, b)
						}
					}
					sel.nesBuf = out
					return out
				}
			}
			return ow.nes
		}
	}
	return nil
}

// leafState projects s onto leaf l's component, caching per state.
func (sel *selector) leafState(s ioa.State, l int) (ioa.State, bool) {
	if sel.leafSV[l] == sel.estamp {
		return sel.leafSt[l], sel.leafSt[l] != nil
	}
	sel.leafSV[l] = sel.estamp
	cur := s
	for _, i := range sel.p.leaves[l].path {
		ts, ok := cur.(*ioa.TupleState)
		if !ok || i >= ts.Len() {
			sel.leafSt[l] = nil
			return nil, false
		}
		cur = ts.At(i)
	}
	sel.leafSt[l] = cur
	return cur, true
}

// leafEnabled reports whether local action la is enabled in leaf l at
// projected state ls, caching the leaf's enabled list per state.
func (sel *selector) leafEnabled(l int, ls ioa.State, la ioa.Action) bool {
	if sel.leafEV[l] != sel.estamp {
		sel.leafEV[l] = sel.estamp
		sel.leafEn[l] = sel.p.leaves[l].auto.Enabled(ls)
	}
	for _, a := range sel.leafEn[l] {
		if a == la {
			return true
		}
	}
	return false
}

// allFresh checks C3: every successor of s under every candidate
// ample action must be new to the store.
func (sel *selector) allFresh(s ioa.State, seen func(ioa.State) bool) bool {
	for _, j := range sel.amp {
		fresh := true
		ioa.VisitNext(sel.p.auto, s, sel.p.acts[j], func(t ioa.State) bool {
			if seen(t) {
				fresh = false
				return false
			}
			return true
		})
		if !fresh {
			return false
		}
	}
	return true
}
