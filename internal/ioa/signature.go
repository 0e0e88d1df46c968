package ioa

import (
	"errors"
	"fmt"
)

// A Signature is an action signature (in, out, int): three disjoint
// sets of input, output, and internal actions (paper §2.1).
type Signature struct {
	in       Set
	out      Set
	internal Set
}

// NewSignature builds a signature from the three action sets, which
// must be pairwise disjoint. The slices are copied.
func NewSignature(in, out, internal []Action) (Signature, error) {
	sig := Signature{in: NewSet(in...), out: NewSet(out...), internal: NewSet(internal...)}
	if err := sig.validate(); err != nil {
		return Signature{}, err
	}
	return sig, nil
}

// MustSignature is NewSignature but panics on error; for use with
// statically known signatures.
func MustSignature(in, out, internal []Action) Signature {
	sig, err := NewSignature(in, out, internal)
	if err != nil {
		panic(err)
	}
	return sig
}

func (s Signature) validate() error {
	for a := range s.in {
		if s.out.Has(a) || s.internal.Has(a) {
			return dupErr(a, "appears in more than one signature component")
		}
	}
	for a := range s.out {
		if s.internal.Has(a) {
			return dupErr(a, "appears in more than one signature component")
		}
	}
	return nil
}

// Inputs returns a copy of in(S).
func (s Signature) Inputs() Set { return s.in.Clone() }

// Outputs returns a copy of out(S).
func (s Signature) Outputs() Set { return s.out.Clone() }

// Internals returns a copy of int(S).
func (s Signature) Internals() Set { return s.internal.Clone() }

// Acts returns acts(S) = in ∪ out ∪ int.
func (s Signature) Acts() Set { return s.in.Union(s.out).Union(s.internal) }

// Ext returns ext(S) = in ∪ out, the external actions.
func (s Signature) Ext() Set { return s.in.Union(s.out) }

// Local returns local(S) = out ∪ int, the locally-controlled actions.
func (s Signature) Local() Set { return s.out.Union(s.internal) }

// IsInput reports whether a ∈ in(S).
func (s Signature) IsInput(a Action) bool { return s.in.Has(a) }

// IsOutput reports whether a ∈ out(S).
func (s Signature) IsOutput(a Action) bool { return s.out.Has(a) }

// IsInternal reports whether a ∈ int(S).
func (s Signature) IsInternal(a Action) bool { return s.internal.Has(a) }

// IsExternal reports whether a ∈ ext(S).
func (s Signature) IsExternal(a Action) bool { return s.in.Has(a) || s.out.Has(a) }

// IsLocal reports whether a ∈ local(S).
func (s Signature) IsLocal(a Action) bool { return s.out.Has(a) || s.internal.Has(a) }

// HasAction reports whether a ∈ acts(S).
func (s Signature) HasAction(a Action) bool {
	return s.in.Has(a) || s.out.Has(a) || s.internal.Has(a)
}

// External returns the external action signature of S: the signature
// obtained by removing the internal actions (paper §2.1).
func (s Signature) External() Signature {
	return Signature{in: s.in.Clone(), out: s.out.Clone(), internal: make(Set)}
}

// Equal reports whether two signatures have identical components.
func (s Signature) Equal(t Signature) bool {
	return setEqual(s.in, t.in) && setEqual(s.out, t.out) && setEqual(s.internal, t.internal)
}

func setEqual(a, b Set) bool {
	if len(a) != len(b) {
		return false
	}
	for x := range a {
		if !b.Has(x) {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (s Signature) String() string {
	return fmt.Sprintf("(in=%v, out=%v, int=%v)", s.in, s.out, s.internal)
}

// ErrIncompatible is returned when a collection of signatures (or
// objects) violates the compatibility conditions of §2.1.1.
var ErrIncompatible = errors.New("ioa: incompatible action signatures")

// Compatible checks the compatibility conditions of §2.1.1 for the
// given signatures: output sets pairwise disjoint, and each signature's
// internal actions disjoint from every other signature's actions.
// It returns a descriptive error wrapping ErrIncompatible on violation.
func Compatible(sigs ...Signature) error {
	for i := range sigs {
		for j := range sigs {
			if i == j {
				continue
			}
			if i < j && !sigs[i].out.Disjoint(sigs[j].out) {
				shared := sigs[i].out.Intersect(sigs[j].out)
				return fmt.Errorf("%w: shared output actions %v (components %d, %d)",
					ErrIncompatible, shared, i, j)
			}
			if shared := sigs[i].internal.Filter(sigs[j].HasAction); shared.Len() > 0 {
				return fmt.Errorf("%w: internal actions %v of component %d appear in component %d",
					ErrIncompatible, shared, i, j)
			}
		}
	}
	return nil
}

// ComposeSignatures forms the composition ∏ᵢSᵢ of compatible
// signatures (§2.1.1):
//
//	in(S)  = ⋃ in(Sᵢ) − ⋃ out(Sᵢ)
//	out(S) = ⋃ out(Sᵢ)
//	int(S) = ⋃ int(Sᵢ)
func ComposeSignatures(sigs ...Signature) (Signature, error) {
	if err := Compatible(sigs...); err != nil {
		return Signature{}, err
	}
	in, out, internal := make(Set), make(Set), make(Set)
	for _, s := range sigs {
		for a := range s.in {
			in[a] = struct{}{}
		}
		for a := range s.out {
			out[a] = struct{}{}
		}
		for a := range s.internal {
			internal[a] = struct{}{}
		}
	}
	for a := range out {
		delete(in, a)
	}
	return Signature{in: in, out: out, internal: internal}, nil
}

// HideSignature moves the actions of hide that occur in s from the
// external components into the internal component (§2.1.2):
//
//	in(Hide_Σ(S))  = in(S) − Σ
//	out(Hide_Σ(S)) = out(S) − Σ
//	int(Hide_Σ(S)) = int(S) ∪ (acts(S) ∩ Σ)
func HideSignature(s Signature, hide Set) Signature {
	return Signature{
		in:       s.in.Minus(hide),
		out:      s.out.Minus(hide),
		internal: s.internal.Union(s.Acts().Intersect(hide)),
	}
}
