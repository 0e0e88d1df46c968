package ioa

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// refKey is the encoding's definition, independent of TupleState's
// lazy key and streaming: JoinKeys over the parts' reference keys.
func refKey(s State) string {
	t, ok := s.(*TupleState)
	if !ok {
		return s.Key()
	}
	keys := make([]string, t.Len())
	for i := range keys {
		keys[i] = refKey(t.At(i))
	}
	return JoinKeys(keys...)
}

// boundaryLens are part-key lengths on both sides of every
// length-prefix digit boundary.
var boundaryLens = []int{0, 9, 10, 99, 100, 1000}

func keyOfLen(n int) State { return KeyState(strings.Repeat("k", n)) }

// tupleShapes returns builders, so every check starts from tuples
// that have never been asked for a key.
func tupleShapes() map[string]func() *TupleState {
	flat := func() *TupleState {
		var parts []State
		for _, n := range boundaryLens {
			parts = append(parts, keyOfLen(n))
		}
		return NewTupleState(parts)
	}
	shapes := map[string]func() *TupleState{
		"no parts": func() *TupleState { return NewTupleState(nil) },
		"flat":     flat,
		"nested": func() *TupleState {
			inner := NewTupleState([]State{flat(), keyOfLen(10)})
			mid := NewTupleState([]State{keyOfLen(0), inner, NewTupleState(nil)})
			return NewTupleState([]State{mid, keyOfLen(99), flat()})
		},
		"inner key cached": func() *TupleState {
			inner := flat()
			inner.Key()
			return NewTupleState([]State{inner, keyOfLen(9)})
		},
	}
	// A one-part tuple over an n-byte key is digits(n)+1+n bytes long,
	// so these inner tuples' own keys are 9, 10, 99, 100 and 1000 bytes.
	for _, n := range []int{7, 8, 96, 97, 995} {
		n := n
		shapes[fmt.Sprintf("inner tuple over %d", n)] = func() *TupleState {
			return NewTupleState([]State{NewTupleState([]State{keyOfLen(n)}), keyOfLen(1)})
		}
	}
	return shapes
}

// TestTupleEncodingIsJoinKeys pins the streamed encoding and the lazy
// key to the JoinKeys framing, in either call order and into a
// non-empty destination.
func TestTupleEncodingIsJoinKeys(t *testing.T) {
	for name, build := range tupleShapes() {
		want := refKey(build())
		for _, order := range []string{"append first", "key first"} {
			ts := build()
			var key string
			var enc, onto []byte
			if order == "key first" {
				key = ts.Key()
			}
			enc = AppendState(nil, ts)
			onto = AppendState([]byte("prefix"), ts)
			if order == "append first" {
				key = ts.Key()
			}
			again := AppendState(nil, ts) // now copying the cached key
			if key != want {
				t.Errorf("%s, %s: Key() = %.60q, want %.60q", name, order, key, want)
			}
			if string(enc) != want || string(again) != want {
				t.Errorf("%s, %s: AppendState = %.60q / %.60q, want %.60q", name, order, enc, again, want)
			}
			if string(onto) != "prefix"+want {
				t.Errorf("%s, %s: AppendState onto a prefix = %.60q", name, order, onto)
			}
			if ts.Key() != key {
				t.Errorf("%s, %s: Key() not stable", name, order)
			}
		}
	}
}

// TestNestedFrameDigitBoundaries: a nested tuple's frame is written in
// one pass, its length prefix reserved at a guessed width and fixed up
// after. Inner keys on both sides of every digit boundary the guess can
// miss, two and three tuples deep, with the inner key cached or not, on
// heap and on borrowed tuples, must all read as JoinKeys.
func TestNestedFrameDigitBoundaries(t *testing.T) {
	var sc Scratch
	for _, n := range []int{9, 10, 99, 100, 999, 1000} {
		// A one-part tuple over an m-byte key is digits(m)+1+m bytes long.
		m := n - 2
		for len(strconv.Itoa(m))+1+m > n {
			m--
		}
		for _, depth := range []int{2, 3} {
			for _, cached := range []bool{false, true} {
				for _, borrowed := range []bool{false, true} {
					sc.Reset()
					tuple := func(parts ...State) *TupleState {
						if borrowed {
							return sc.tuple(parts)
						}
						return NewTupleState(parts)
					}
					inner := tuple(keyOfLen(m))
					if cached {
						inner.Key()
					}
					s := tuple(keyOfLen(3), inner)
					if depth == 3 {
						s = tuple(s, keyOfLen(9))
					}
					want := refKey(s)
					if got := len(refKey(inner)); got != n {
						t.Fatalf("the inner key is %d bytes, want %d", got, n)
					}
					name := fmt.Sprintf("inner %d B, depth %d, cached %v, borrowed %v", n, depth, cached, borrowed)
					if enc := AppendState([]byte("p"), s); string(enc) != "p"+want {
						t.Errorf("%s: AppendState = %.60q, want %.60q", name, enc[1:], want)
					}
					if key := s.Key(); key != want {
						t.Errorf("%s: Key() = %.60q, want %.60q", name, key, want)
					}
				}
			}
		}
	}
}

// TestTupleKeySharedAcrossGoroutines has many goroutines ask one fresh
// tuple for its key and its encoding at once (run under -race).
func TestTupleKeySharedAcrossGoroutines(t *testing.T) {
	for round := 0; round < 20; round++ {
		ts := tupleShapes()["nested"]()
		want := refKey(ts)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				var key string
				var enc []byte
				if g%2 == 0 {
					key, enc = ts.Key(), AppendState(nil, ts)
				} else {
					enc, key = AppendState(nil, ts), ts.Key()
				}
				if key != want || string(enc) != want {
					t.Errorf("goroutine %d: key %.40q, encoding %.40q, want %.40q", g, key, enc, want)
				}
			}()
		}
		wg.Wait()
	}
}

// ndInput builds a component whose input "go" moves it to any of the
// given states, with one never-enabled output so it has a class.
func ndInput(name string, succ ...string) *Prog {
	d := NewDef(name)
	d.Start(KeyState(name + "0"))
	d.InputND("go", func(State) []State {
		out := make([]State, len(succ))
		for i, k := range succ {
			out[i] = KeyState(k)
		}
		return out
	})
	d.Output(Act("out", name), name,
		func(State) bool { return false },
		func(s State) State { return s })
	return d.MustBuild()
}

// partKeys renders a tuple as its part keys, for literal comparison.
func partKeys(s State) string {
	ts := s.(*TupleState)
	keys := make([]string, ts.Len())
	for i := range keys {
		keys[i] = ts.At(i).Key()
	}
	return strings.Join(keys, " ")
}

func visited(c *Composite, s State, a Action) []string {
	var got []string
	c.Next(nil, s, a, func(nxt State) bool {
		got = append(got, partKeys(nxt))
		return true
	})
	return got
}

// TestCompositeSynchronisingOrder pins the cross product of a
// synchronising step: first owner most significant, bystanders
// untouched, and a declined yield stopping the walk.
func TestCompositeSynchronisingOrder(t *testing.T) {
	bystander := ndInput("B") // does not share "go" after renaming
	by, err := Rename(bystander, MustMapping(map[Action]Action{"go": "elsewhere"}))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		comps []Automaton
		want  []string
	}{
		{"two owners", []Automaton{ndInput("P", "L", "R"), by, ndInput("Q", "X", "Y", "Z")},
			[]string{"L B0 X", "L B0 Y", "L B0 Z", "R B0 X", "R B0 Y", "R B0 Z"}},
		{"three owners", []Automaton{ndInput("P", "L", "R"), ndInput("Q", "X", "Y", "Z"), by, ndInput("R", "0", "1")},
			[]string{
				"L X B0 0", "L X B0 1", "L Y B0 0", "L Y B0 1", "L Z B0 0", "L Z B0 1",
				"R X B0 0", "R X B0 1", "R Y B0 0", "R Y B0 1", "R Z B0 0", "R Z B0 1",
			}},
	}
	for _, tc := range cases {
		c := MustCompose(tc.name, tc.comps...)
		s := c.Start()[0]
		got := visited(c, s, "go")
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: Next order\n got %v\nwant %v", tc.name, got, tc.want)
		}
		// A yield that declines stops the walk at once.
		calls := 0
		if c.Next(nil, s, "go", func(State) bool { calls++; return false }) || calls != 1 {
			t.Errorf("%s: declined walk returned true or made %d calls, want false after 1", tc.name, calls)
		}
	}
}

// TestCompositeOwnerWithoutStep: one owner that cannot take the shared
// action means the composition cannot either.
func TestCompositeOwnerWithoutStep(t *testing.T) {
	d := NewDef("blocker")
	d.Start(KeyState("b"))
	d.Output("go", "blocker",
		func(State) bool { return false },
		func(s State) State { return s })
	c := MustCompose("blocked", ndInput("P", "L", "R"), d.MustBuild(), ndInput("Q", "X", "Y"))
	s := c.Start()[0]
	if got := visited(c, s, "go"); len(got) != 0 {
		t.Errorf("Next yielded %v, want nothing", got)
	}
}

// TestCompositeRejectsWrongArity: a tuple that is not a state of this
// composition — too short or too long — has no steps and nothing
// enabled, from every entry point alike.
func TestCompositeRejectsWrongArity(t *testing.T) {
	_, _, c := pingPong(t)
	for name, s := range map[string]State{
		"short": NewTupleState([]State{KeyState("a0")}),
		"long":  NewTupleState([]State{KeyState("a0"), KeyState("b0"), KeyState("a0")}),
	} {
		if en := c.Enabled(s); en != nil {
			t.Errorf("%s tuple: Enabled = %v, want nil", name, en)
		}
		yielded := false
		if !c.Next(nil, s, "α", func(State) bool { yielded = true; return true }) || yielded {
			t.Errorf("%s tuple: Next must return true without yielding", name)
		}
	}
}

// TestCompositeStepAllocs pins the cost of a successor that turns out
// to be a duplicate: stepped and encoded into a reused buffer, it
// allocates its tuple and its part vector — no key string, nothing
// that grows with the key.
func TestCompositeStepAllocs(t *testing.T) {
	big := strings.Repeat("x", 1000)
	d := NewDef("mover")
	d.Start(KeyState("m0"))
	d.Internal("move", "mover",
		func(State) bool { return true },
		func(State) State { return KeyState("m1") })
	idle := func(name string) *Prog {
		d := NewDef(name)
		d.Start(KeyState(name + big))
		d.Output(Act("out", name), name,
			func(State) bool { return false },
			func(s State) State { return s })
		return d.MustBuild()
	}
	c := MustCompose("allocs", idle("a"), d.MustBuild(), idle("b"))
	s := c.Start()[0]
	buf := make([]byte, 0, 4096)
	step := func() {
		c.Next(nil, s, "move", func(nxt State) bool {
			buf = AppendState(buf[:0], nxt)
			return true
		})
	}
	step() // warm the memo
	if allocs := testing.AllocsPerRun(200, step); allocs > 2 {
		t.Errorf("single-owner step + AppendState allocates %.0f objects, want at most 2 (tuple, part vector)", allocs)
	}
	if string(buf) != JoinKeys("a"+big, "m1", "b"+big) {
		t.Errorf("the step's encoding is not the JoinKeys framing")
	}
}

// fuzzTuple decodes fuzz bytes into a tuple shape: each node spends
// one byte choosing between a nested tuple (up to depth 4, up to four
// parts) and a leaf whose key length is a digit-boundary length or
// the next byte's value; an even tuple byte also forces that tuple's
// key, so cached keys sit below uncached parents. Exhausted input
// reads as zeros.
func fuzzTuple(data *[]byte, depth int) State {
	next := func() byte {
		if len(*data) == 0 {
			return 0
		}
		b := (*data)[0]
		*data = (*data)[1:]
		return b
	}
	b := next()
	if depth < 4 && b%3 == 0 {
		parts := make([]State, int(next())%5)
		for i := range parts {
			parts[i] = fuzzTuple(data, depth+1)
		}
		ts := NewTupleState(parts)
		if b%2 == 0 {
			ts.Key()
		}
		return ts
	}
	lens := append([]int{1, int(next())}, boundaryLens...)
	return KeyState(strings.Repeat(string(rune('a'+b%26)), lens[int(b/3)%len(lens)]))
}

// borrowedCopy rebuilds s in sc, level by level: the shape a borrowed
// walk hands out when every level of a nested composition stepped.
func borrowedCopy(sc *Scratch, s State) State {
	t, ok := s.(*TupleState)
	if !ok {
		return s
	}
	parts := make([]State, len(t.parts))
	for i, p := range t.parts {
		parts[i] = borrowedCopy(sc, p)
	}
	return sc.tuple(parts)
}

// FuzzTupleEncoding: for any nesting and any part keys, the streamed
// encoding, the lazy key and the recursive JoinKeys reference are the
// same bytes — of the tuple, of a borrowed copy of it, of that copy's
// successor in a reused header, and of what Keep made of it once the
// scratch is gone. `go test -fuzz=FuzzTupleEncoding ./internal/ioa`.
func FuzzTupleEncoding(f *testing.F) {
	f.Add([]byte{})
	// One flat tuple whose four leaves have lengths 0, 9, 10, 99.
	f.Add([]byte{3, 4, 7, 0, 10, 0, 13, 0, 16, 0})
	// Lengths 100 and 1000 under two levels of nesting, inner key cached.
	f.Add([]byte{3, 2, 6, 2, 19, 0, 22, 0, 1, 5})
	// One-part tuples whose own keys are 9, 10, 99 and 100 bytes long.
	f.Add([]byte{3, 4, 3, 1, 4, 7, 3, 1, 4, 8, 3, 1, 4, 96, 3, 1, 4, 97})
	// Three deep, the innermost key 99 bytes, and 100 bytes cached.
	f.Add([]byte{3, 1, 3, 1, 3, 1, 4, 96})
	f.Add([]byte{3, 1, 3, 1, 6, 1, 4, 97})
	// An inner key of 999 bytes (three 255-byte leaves and a 218-byte
	// one) beside a leaf, and of 1000 bytes, cached, three deep.
	f.Add([]byte{3, 2, 3, 4, 4, 255, 4, 255, 4, 255, 4, 218, 1})
	f.Add([]byte{3, 1, 3, 1, 6, 4, 4, 255, 4, 255, 4, 255, 4, 219})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzTuple(&data, 0)
		want := refKey(s)
		if enc := AppendState([]byte("p"), s); string(enc) != "p"+want {
			t.Fatalf("AppendState = %.80q, want %.80q", enc[1:], want)
		}
		if key := s.Key(); key != want {
			t.Fatalf("Key() = %.80q, want %.80q", key, want)
		}
		if enc := AppendState(nil, s); string(enc) != want {
			t.Fatalf("AppendState after Key() = %.80q, want %.80q", enc, want)
		}

		var sc Scratch
		// The header this Reset rewinds holds the cached key of another
		// state: the tuple built in it next must not answer with it.
		sc.tuple([]State{KeyState("stale")}).Key()
		sc.Reset()
		b := borrowedCopy(&sc, s)
		if enc := AppendState(nil, b); string(enc) != want {
			t.Fatalf("borrowed AppendState = %.80q, want %.80q", enc, want)
		}
		if key := b.Key(); key != want {
			t.Fatalf("borrowed Key() = %.80q, want %.80q", key, want)
		}
		kept := Keep(b)
		if _, isTuple := s.(*TupleState); isTuple == (kept == b) {
			t.Fatalf("Keep returned the borrowed tuple itself, or copied a leaf")
		}
		poisonScratch.Store(true)
		sc.Reset()
		poisonScratch.Store(false)
		if enc := AppendState(nil, kept); string(enc) != want {
			t.Fatalf("kept AppendState after Reset = %.80q, want %.80q", enc, want)
		}
		if key := kept.Key(); key != want {
			t.Fatalf("kept Key() after Reset = %.80q, want %.80q", key, want)
		}
		if bt, ok := b.(*TupleState); ok && len(bt.parts) > 0 && b.Key() == want {
			t.Fatalf("the borrowed tuple still reads %.80q after a poisoned Reset", want)
		}
	})
}
