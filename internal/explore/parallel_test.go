package explore

import "testing"

func TestOptionsResolution(t *testing.T) {
	if got := (Options{}).limit(); got != DefaultLimit {
		t.Errorf("zero Limit resolved to %d, want DefaultLimit", got)
	}
	if got := (Options{Limit: 17}).limit(); got != 17 {
		t.Errorf("Limit=17 resolved to %d", got)
	}
}

func TestParallelCheckNilPred(t *testing.T) {
	e := New(Options{})
	if _, err := e.CheckInvariant(nil, nil, nil); err == nil {
		t.Fatal("Engine.CheckInvariant accepted nil predicate")
	}
}
