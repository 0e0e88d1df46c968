package explore

import (
	"runtime"
	"testing"
)

func TestOptionsResolution(t *testing.T) {
	if got := (Options{}).WorkerCount(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("zero Workers resolved to %d, want GOMAXPROCS", got)
	}
	if got := (Options{Workers: 3}).WorkerCount(); got != 3 {
		t.Errorf("Workers=3 resolved to %d", got)
	}
	if got := (Options{Workers: -1}).WorkerCount(); got != 1 {
		t.Errorf("negative Workers resolved to %d, want 1", got)
	}
	if got := (Options{}).limit(); got != DefaultLimit {
		t.Errorf("zero Limit resolved to %d, want DefaultLimit", got)
	}
	if got := (Options{Limit: 17}).limit(); got != 17 {
		t.Errorf("Limit=17 resolved to %d", got)
	}
}

func TestParallelCheckNilPred(t *testing.T) {
	e := New(Options{Workers: 1})
	if _, err := e.CheckInvariant(nil, nil, nil); err == nil {
		t.Fatal("Engine.CheckInvariant accepted nil predicate")
	}
}
