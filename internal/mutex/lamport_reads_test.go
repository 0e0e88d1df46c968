package mutex

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/induct"
	"repro/internal/lattice"
	"repro/internal/testseed"
)

func mustLamport(t *testing.T, n, maxClock, cap int) *Lamport {
	t.Helper()
	l, err := NewLamport(n, maxClock, cap)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// declaredLemmas returns the conjuncts of Inv that declare reads; the
// tests below fail if the set ever goes empty, so a refactor cannot
// silently turn them vacuous.
func declaredLemmas(t *testing.T, l *Lamport) []lattice.Lemma {
	t.Helper()
	var out []lattice.Lemma
	for _, lem := range l.Inv().Lemmas() {
		if lem.Reads != nil {
			out = append(out, lem)
		}
	}
	if len(out) != 5 {
		t.Fatalf("%d lemmas declare reads, want Mutex, CritOK, AckOwn, ClockOK, CritBeats", len(out))
	}
	return out
}

// TestLamportReadsExhaustive checks every declaration over the whole
// (2,2,1) domain: a lemma's value is a function of its declared digits
// alone — every state is compared with the first state seen that
// agrees on them. Any two such states are joined by single-digit
// changes of undeclared digits through states that also agree, so this
// is the perturb-one-undeclared-digit check at every domain point.
func TestLamportReadsExhaustive(t *testing.T) {
	l := mustLamport(t, 2, 2, 1)
	card := l.domainCard()
	lemmas := declaredLemmas(t, l)
	tables := make([][]int8, len(lemmas)) // 0 unseen, +1 holds, -1 fails
	for i, lem := range lemmas {
		size := 1
		for _, k := range lem.Reads {
			size *= card[k]
		}
		tables[i] = make([]int8, size)
	}
	digits := make([]int, len(card))
	for {
		s := l.domainState(digits)
		for i, lem := range lemmas {
			at := 0
			for _, k := range lem.Reads {
				at = at*card[k] + digits[k]
			}
			v := int8(-1)
			if lem.Pred(s) {
				v = 1
			}
			if tables[i][at] == 0 {
				tables[i][at] = v
			} else if tables[i][at] != v {
				t.Fatalf("%s declares reads %v but at digits %v its value differs from an earlier state with the same declared digits",
					lem.Name, lem.Reads, digits)
			}
		}
		k := len(digits) - 1
		for ; k >= 0; k-- {
			if digits[k]++; digits[k] < card[k] {
				break
			}
			digits[k] = 0
		}
		if k < 0 {
			return
		}
	}
}

// TestLamportReadsPerturbed is the seeded form at the sizes too large
// to sweep: from random domain points, setting any one undeclared
// digit to any of its values leaves every declared lemma's verdict
// where it was. (3,2,1) is the N = 3 layout no certificate walks yet.
func TestLamportReadsPerturbed(t *testing.T) {
	rng := testseed.Rand(t, 21)
	for _, size := range [][3]int{{2, 3, 1}, {2, 2, 2}, {3, 2, 1}} {
		l := mustLamport(t, size[0], size[1], size[2])
		card := l.domainCard()
		lemmas := declaredLemmas(t, l)
		digits := make([]int, len(card))
		for point := 0; point < 300; point++ {
			for k := range digits {
				digits[k] = rng.Intn(card[k])
			}
			for _, lem := range lemmas {
				declared := make(map[int]bool, len(lem.Reads))
				for _, k := range lem.Reads {
					declared[k] = true
				}
				want := lem.Pred(l.domainState(digits))
				for k := range digits {
					if declared[k] {
						continue
					}
					keep := digits[k]
					for v := 0; v < card[k]; v++ {
						digits[k] = v
						if lem.Pred(l.domainState(digits)) != want {
							t.Fatalf("%v: %s declares reads %v but moves with undeclared digit %d at %v",
								size, lem.Name, lem.Reads, k, digits)
						}
					}
					digits[k] = keep
				}
			}
		}
	}
}

// stripReads returns the conjunction with every declaration removed —
// the unpruned walk.
func stripReads(c *lattice.Conjunction) *lattice.Conjunction {
	lemmas := c.Lemmas()
	for i := range lemmas {
		lemmas[i].Reads = nil
	}
	return lattice.Conj(c.Name(), lemmas...)
}

// certSummary is everything a certificate says, with states and the
// trace flattened to text so two runs compare by value.
type certSummary struct {
	Invariant                             string
	Inductive, AdequacyChecked            bool
	Base, Domain, Cands, Trans, SelfLoops int64
	Obligations                           []induct.Obligation
	CTI                                   string
	Conjunct, From, To, Trace             string
}

func summarize(c induct.Certificate) certSummary {
	s := certSummary{
		Invariant: c.Invariant, Inductive: c.Inductive, AdequacyChecked: c.AdequacyChecked,
		Base: c.BaseStates, Domain: c.DomainStates, Cands: c.Candidates, Trans: c.Transitions,
		SelfLoops: c.SelfLoops, Obligations: c.Obligations,
	}
	if c.CTI != nil {
		s.CTI, s.Conjunct = c.CTI.String(), c.CTI.Kind+"/"+c.CTI.Conjunct
		s.From, s.Trace = c.CTI.From.Key(), c.CTI.Trace.String()
		if c.CTI.To != nil {
			s.To = c.CTI.To.Key()
		}
	}
	return s
}

// TestLamportDeclaredVsStripped is the differential the pruned walk
// answers to: the certificate with the declarations in force equals,
// field for field, the certificate of the same conjunction with every
// Reads stripped — for the full Inv and for Inv minus each lemma whose
// loss leaves a counterexample to induction (so the CTI, its conjunct,
// its trace and the early-stop DomainStates are compared too).
func TestLamportDeclaredVsStripped(t *testing.T) {
	sizes := [][3]int{{2, 2, 1}, {2, 3, 1}}
	if !testing.Short() {
		sizes = append(sizes, [3]int{2, 2, 2})
	}
	drops := []string{"", "CritOK", "ClockOK", "ChanOK", "StageOK", "PostAckReq", "CritBeats"}
	for _, size := range sizes {
		l := mustLamport(t, size[0], size[1], size[2])
		for _, drop := range drops {
			t.Run(fmt.Sprintf("%v/-%s", size, drop), func(t *testing.T) {
				inv := lattice.Conj("Inv", l.TypeOK(), l.MutexLemma())
				for _, lem := range l.Lemmas() {
					if lem.Name != drop {
						inv = inv.With(lem)
					}
				}
				declared, err := induct.Check(context.Background(), l.Auto, l.Domain(), inv, induct.Options{})
				if err != nil {
					t.Fatal(err)
				}
				stripped, err := induct.Check(context.Background(), l.Auto, l.Domain(), stripReads(inv), induct.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if declared.Inductive != (drop == "") {
					t.Fatalf("Inv minus %q: inductive = %t", drop, declared.Inductive)
				}
				if got, want := summarize(declared), summarize(stripped); !reflect.DeepEqual(got, want) {
					t.Fatalf("certificates differ:\ndeclared %+v\nstripped %+v", got, want)
				}
			})
		}
	}
}
