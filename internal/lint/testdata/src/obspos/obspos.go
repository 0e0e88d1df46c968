// Package obspos copies internal/obs metric structs by value in every
// position the lockcopy analyzer checks. The Counter and the Histogram
// are built from sync/atomic cells: a by-value copy forks the tallies,
// so Adds land in a cell the registry (and every snapshot) never
// reads. The golden test expects a diagnostic
// at each marked line.
package obspos

import "repro/internal/obs"

type board struct {
	hot [2]obs.Counter
}

func observeAll(h obs.Histogram, vs []int64) { // want "parameter of type Histogram declared by value"
	for _, v := range vs {
		h.Observe(v)
	}
}

func drain(c obs.Counter) int64 { // want "parameter of type Counter declared by value"
	return c.Value()
}

func snapshot(r *obs.Registry, b *board) obs.Histogram { // want "result of type Histogram declared by value"
	h := *r.Histogram("latency") // want "assignment copies Histogram by value"
	observeAll(h, nil)           // want "call passes Histogram by value"
	total := drain(b.hot[0])     // want "call passes Counter by value"
	_ = total
	for _, c := range &b.hot { // want "range clause copies Counter elements by value"
		_ = c.Value()
	}
	return *r.Histogram("latency") // want "return copies Histogram by value"
}
