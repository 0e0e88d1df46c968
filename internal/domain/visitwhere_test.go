package domain_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	. "repro/internal/domain"
	"repro/internal/ioa"
	"repro/internal/ring"
	"repro/internal/testseed"
)

// digitsOf reads the digit vector back out of a state built by
// digitProduct or digitTuple.
func digitsOf(s ioa.State) []int {
	if ds, ok := s.(*ring.DijkstraState); ok {
		return ds.Vals()
	}
	ts := s.(*ioa.TupleState)
	out := make([]int, ts.Len())
	for i := range out {
		out[i], _ = strconv.Atoi(string(ts.At(i).(ioa.KeyState)))
	}
	return out
}

func digitProduct(t testing.TB, name string, card []int) Domain {
	t.Helper()
	d, err := Product(name, card,
		func(digits []int) ioa.State { return ring.NewDijkstraState(digits) },
		func(ioa.State) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func digitTuple(name string, card []int) Domain {
	parts := make([][]ioa.State, len(card))
	for i, c := range card {
		for v := 0; v < c; v++ {
			parts[i] = append(parts[i], ioa.KeyState(strconv.Itoa(v)))
		}
	}
	return Tuple(name, parts)
}

// referenceOrder lists every digit vector of card in odometer order
// (rightmost fastest) by div/mod on the enumeration index — no carry
// loop, so it shares nothing with the walk under test.
func referenceOrder(card []int) [][]int {
	size := 1
	for _, c := range card {
		size *= c
	}
	out := make([][]int, size)
	for i := range out {
		digits := make([]int, len(card))
		rest := i
		for k := len(card) - 1; k >= 0; k-- {
			digits[k] = rest % card[k]
			rest /= card[k]
		}
		out[i] = digits
	}
	return out
}

// tableFilter is a random predicate that really depends on exactly
// the digits in deps: a truth table indexed by their mixed-radix
// value. It declares reads, which the caller may make a strict subset
// of deps (a mis-declaration) or nil.
func tableFilter(rng *rand.Rand, name string, card, deps, reads []int) Filter {
	size := 1
	for _, k := range deps {
		size *= card[k]
	}
	table := make([]bool, size)
	for i := range table {
		table[i] = rng.Intn(3) != 0
	}
	return Filter{Name: name, Reads: reads, Pred: func(s ioa.State) bool {
		digits, i := digitsOf(s), 0
		for _, k := range deps {
			i = i*card[k] + digits[k]
		}
		return table[i]
	}}
}

func randomSubset(rng *rand.Rand, n int) []int {
	out := []int{}
	for k := 0; k < n; k++ {
		if rng.Intn(2) == 0 {
			out = append(out, k)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

type visited struct {
	key   string
	index int64
}

func collectWhere(d Domain, filters []Filter) ([]visited, error) {
	var got []visited
	err := d.(Pruner).VisitWhere(context.Background(), filters, func(s ioa.State, index int64) error {
		got = append(got, visited{s.Key(), index})
		return nil
	})
	return got, err
}

// checkVisitWhere is the property FuzzVisitWhere and the seeded test
// share: on a random small cardinality vector, for Product and Tuple
// alike, the zero-filter walk is the reference order elementwise, and
// under random honestly-declared table filters VisitWhere yields
// exactly the states of Visit that every filter accepts, in the same
// order, each with its index in the unfiltered enumeration.
func checkVisitWhere(t *testing.T, rng *rand.Rand) {
	card := make([]int, 1+rng.Intn(5))
	for i := range card {
		card[i] = 1 + rng.Intn(4)
	}
	var filters []Filter
	for i := rng.Intn(4); i > 0; i-- {
		deps := randomSubset(rng, len(card))
		reads := deps
		if rng.Intn(4) == 0 {
			reads = nil // undeclared: evaluated at the leaves
		}
		filters = append(filters, tableFilter(rng, fmt.Sprintf("f%d", i), card, deps, reads))
	}
	ref := referenceOrder(card)
	for _, d := range []Domain{digitProduct(t, "product", card), digitTuple("tuple", card)} {
		var plain []ioa.State
		err := d.Visit(context.Background(), func(s ioa.State) error {
			plain = append(plain, s)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(plain) != len(ref) || int64(len(ref)) != Size(d) {
			t.Fatalf("%s %v: Visit streamed %d states, reference has %d, Size says %d", d.Name(), card, len(plain), len(ref), Size(d))
		}
		var want []visited
		for i, s := range plain {
			if got := digitsOf(s); fmt.Sprint(got) != fmt.Sprint(ref[i]) {
				t.Fatalf("%s %v: state %d has digits %v, reference order says %v", d.Name(), card, i, got, ref[i])
			}
			keep := true
			for _, f := range filters {
				keep = keep && f.Pred(s)
			}
			if keep {
				want = append(want, visited{s.Key(), int64(i)})
			}
		}
		got, err := collectWhere(d, filters)
		if err != nil {
			t.Fatalf("%s %v: honest filters refused: %v", d.Name(), card, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s %v, %d filters:\n got %v\nwant %v", d.Name(), card, len(filters), got, want)
		}
	}
}

// checkMisdeclared: a filter whose value flips on a digit below the
// prefix it declares is refused at its first rejection — the zero
// extension fails the table, the opposite corner has the undeclared
// digit at its maximum and passes — and is never silently obeyed.
func checkMisdeclared(t *testing.T, rng *rand.Rand) {
	n := 2 + rng.Intn(4)
	card := make([]int, n)
	for i := range card {
		card[i] = 2 + rng.Intn(3)
	}
	hidden := 1 + rng.Intn(n-1)
	reads := randomSubset(rng, hidden)
	table := tableFilter(rng, "table", card, reads, reads)
	bad := Filter{Name: "misdeclared", Reads: reads, Pred: func(s ioa.State) bool {
		return table.Pred(s) || digitsOf(s)[hidden] == card[hidden]-1
	}}
	d := digitProduct(t, "product", card)
	rejects := false
	for _, digits := range referenceOrder(card) {
		rejects = rejects || !table.Pred(ring.NewDijkstraState(digits))
	}
	_, err := collectWhere(d, []Filter{bad})
	if rejects && (err == nil || !strings.Contains(err.Error(), `"misdeclared"`)) {
		t.Fatalf("card %v reads %v hidden digit %d: mis-declared filter walked without an error naming it (err = %v)", card, reads, hidden, err)
	}
	if !rejects && err != nil {
		t.Fatalf("card %v: a filter that rejects nothing was refused: %v", card, err)
	}
}

func TestVisitWhereProperty(t *testing.T) {
	base := testseed.Base(t)
	for i := int64(0); i < 300; i++ {
		checkVisitWhere(t, testseed.Source(base+i))
		checkMisdeclared(t, testseed.Source(base+i))
	}
}

func FuzzVisitWhere(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkVisitWhere(t, testseed.Source(seed))
		checkMisdeclared(t, testseed.Source(seed))
	})
}

// TestVisitWhereSkipsWholeSubtrees pins the mechanism, not just the
// result: a filter on the leading digit is evaluated once per value of
// that digit (plus one corner re-check per rejection), never once per
// state.
func TestVisitWhereSkipsWholeSubtrees(t *testing.T) {
	card := []int{4, 5, 5, 5}
	evals := 0
	lead := Filter{Name: "lead", Reads: []int{0}, Pred: func(s ioa.State) bool {
		evals++
		return digitsOf(s)[0] == 2
	}}
	got, err := collectWhere(digitProduct(t, "product", card), []Filter{lead})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 125 || got[0].index != 250 || got[124].index != 374 {
		t.Fatalf("got %d states spanning %v..%v, want the 125 with indices 250..374", len(got), got[0], got[len(got)-1])
	}
	if evals != 4+3 {
		t.Fatalf("filter evaluated %d times, want 4 prefixes + 3 corner re-checks", evals)
	}
}

func TestVisitWhereRejectsBadReads(t *testing.T) {
	d := digitProduct(t, "product", []int{2, 2})
	for _, reads := range [][]int{{2}, {-1}} {
		f := Filter{Name: "f", Reads: reads, Pred: func(ioa.State) bool { return true }}
		if _, err := collectWhere(d, []Filter{f}); err == nil {
			t.Fatalf("reads %v on a 2-digit product accepted", reads)
		}
	}
}

// TestSizeOverflow: a cardinality product beyond 2^63 is unknown (-1),
// not a wrapped number; the pruned walk, which would credit subtree
// sizes from it, refuses the domain by name, while Visit still
// streams it.
func TestSizeOverflow(t *testing.T) {
	for _, card := range [][]int{
		{1 << 30, 1 << 30, 1 << 4},    // 2^64: wraps to 0
		{1 << 30, 1 << 30, 12},        // 1.5·2^63: wraps negative
		{1 << 30, 1 << 30, 1 << 4, 3}, // 3·2^64: wraps to 0, then stays
		{5, 1 << 30, 1 << 30, 1 << 2}, // 2^64 + 2^62: wraps positive
	} {
		d := digitProduct(t, "huge", card)
		if n := Size(d); n != -1 {
			t.Fatalf("Size(%v) = %d, want -1", card, n)
		}
		f := Filter{Name: "f", Reads: []int{0}, Pred: func(ioa.State) bool { return true }}
		_, err := collectWhere(d, []Filter{f})
		if err == nil || !strings.Contains(err.Error(), `"huge"`) {
			t.Fatalf("pruned walk over %v: err = %v, want a refusal naming the domain", card, err)
		}
		stop, n := errors.New("stop"), 0
		err = d.Visit(context.Background(), func(ioa.State) error {
			if n++; n == 3 {
				return stop
			}
			return nil
		})
		if !errors.Is(err, stop) {
			t.Fatalf("Visit over %v: %v", card, err)
		}
	}
	fits := digitProduct(t, "fits", []int{1 << 30, 1 << 30, 4})
	if n := Size(fits); n != 1<<62 {
		t.Fatalf("Size = %d, want 2^62", n)
	}
	if n := Size(Union("u", fits, fits)); n != -1 {
		t.Fatalf("Size of a union summing to 2^63 = %d, want -1", n)
	}
}
