// Package obsneg uses the internal/obs metric structs the sanctioned
// way — always behind pointers from the registry, ranging over
// indices, and taking snapshots (plain data, freely copyable) when a
// value is needed. The golden test expects zero diagnostics.
package obsneg

import "repro/internal/obs"

type board struct {
	hot [2]*obs.Counter
}

func observeAll(h *obs.Histogram, vs []int64) {
	for _, v := range vs {
		h.Observe(v)
	}
}

func snapshot(r *obs.Registry, b *board) obs.HistSnapshot {
	h := r.Histogram("latency")
	var total int64
	for i := range b.hot {
		total += b.hot[i].Value()
	}
	h.Observe(total)
	return h.Snapshot()
}
