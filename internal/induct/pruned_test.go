package induct

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/domain"
	"repro/internal/ioa"
	"repro/internal/lattice"
)

// digitProduct is a Product domain over the decimals 0..∏card−1: the
// state of a digit vector is its enumeration index, so the counter
// automaton steps between neighbouring domain points.
func digitProduct(t testing.TB, card []int) domain.Domain {
	t.Helper()
	total := 1
	for _, c := range card {
		total *= c
	}
	d, err := domain.Product("digits", card,
		func(digits []int) ioa.State {
			v := 0
			for k, d := range digits {
				v = v*card[k] + d
			}
			return ks(v)
		},
		func(s ioa.State) bool { return val(s) >= 0 && val(s) < total })
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// leadNot declares honestly: over card {_, 10} it reads digit 0 only.
func leadNot(lead int) lattice.Lemma {
	return lattice.Lemma{Name: "leadNot", Reads: []int{0},
		Pred: func(s ioa.State) bool { return val(s)/10 != lead }}
}

// TestCheckPrunedCertificateUnchanged: a declared conjunct changes how
// the domain is walked and nothing a certificate says — on a complete
// walk (DomainStates is the closed-form size although the trailing
// subtree is skipped) and on an early stop (DomainStates is the CTI's
// enumeration index + 1 although a subtree before it was skipped).
func TestCheckPrunedCertificateUnchanged(t *testing.T) {
	noCarry := func(v int) bool { return v%10 != 9 } // inc never leaves a decade
	for _, tc := range []struct {
		name       string
		inv        *lattice.Conjunction
		domainWant int64
	}{
		{"inductive, trailing subtree skipped", lattice.Conj("Inv", leq(49), leadNot(4)), 50},
		{"CTI 34 → 35 past the skipped 10..19", lattice.Conj("Inv", leq(49), leadNot(1), neq(35)), 35},
	} {
		a, dom := counter(t, noCarry), digitProduct(t, []int{5, 10})
		got, err := Check(context.Background(), a, dom, tc.inv, Options{})
		if err != nil {
			t.Fatal(err)
		}
		plain := tc.inv.Lemmas()
		for i := range plain {
			plain[i].Reads = nil
		}
		want, err := Check(context.Background(), a, dom, lattice.Conj("Inv", plain...), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.DomainStates != tc.domainWant || got.Inductive != (tc.domainWant == 50) {
			t.Fatalf("%s: %s", tc.name, got)
		}
		if got.String() != want.String() || !reflect.DeepEqual(got.Obligations, want.Obligations) ||
			got.SelfLoops != want.SelfLoops || got.BaseStates != want.BaseStates {
			t.Fatalf("%s: declared and undeclared certificates differ:\n%s %+v\n%s %+v",
				tc.name, got, got.Obligations, want, want.Obligations)
		}
	}
}

// TestCheckMisdeclaredReads: a lemma that declares digit 0 but also
// looks at digit 1 is caught by the corner re-check of the first
// subtree it rejects; Check returns the error and certifies nothing.
func TestCheckMisdeclaredReads(t *testing.T) {
	a := counter(t, func(int) bool { return false })
	lying := lattice.Lemma{Name: "lying", Reads: []int{0},
		Pred: func(s ioa.State) bool { return val(s) != 20 }}
	cert, err := Check(context.Background(), a, digitProduct(t, []int{5, 10}), lattice.Conj("Inv", lying), Options{})
	if err == nil || !strings.Contains(err.Error(), `"lying"`) {
		t.Fatalf("err = %v, want the declaration of %q refused", err, "lying")
	}
	if cert.Inductive {
		t.Fatalf("a refused walk certified: %s", cert)
	}
}
