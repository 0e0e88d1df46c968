package obs

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing (or at least add-only)
// counter, safe for concurrent use. The zero value is ready to use; a
// nil *Counter discards every operation, which is the disabled fast
// path of the whole metrics layer.
type Counter struct {
	n atomic.Int64
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.n.Add(n)
}

// Value returns the counter's total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// A Gauge is a last-write-wins instantaneous value. Nil-safe like
// Counter.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current reading.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the bucket count of a Histogram: bucket i>0 holds
// observations v with bits.Len64(v) == i, i.e. v ∈ [2^(i-1), 2^i);
// bucket 0 holds v <= 0. Power-of-two buckets cover the full int64
// range with a constant-time, division-free index.
const histBuckets = 65

// A Histogram records a distribution in power-of-two buckets —
// latencies in nanoseconds, frontier sizes, retry counts. All fields are
// atomics, so it is written lock-free; min/max converge by
// compare-and-swap. Construct with NewHistogram (min tracking needs a
// sentinel); a nil *Histogram discards observations.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records v.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// A HistBucket is one non-empty bucket of a histogram snapshot: the
// value range [Lo, Hi] and the observation count.
type HistBucket struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	N  int64 `json:"n"`
}

// A HistSnapshot is a point-in-time reading of a histogram.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Min     int64        `json:"min"`
	Max     int64        `json:"max"`
	Mean    float64      `json:"mean"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// bucketRange returns the [lo, hi] value range of bucket i.
func bucketRange(i int) (int64, int64) {
	if i == 0 {
		return math.MinInt64, 0
	}
	lo := int64(1) << (i - 1)
	if i == 64 {
		return lo, math.MaxInt64
	}
	return lo, int64(1)<<i - 1
}

// Snapshot reads the histogram. The result is not atomic with respect
// to concurrent observers (counts may trail sums by an in-flight
// observation), which is fine for monitoring.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Count, s.Sum = h.count.Load(), h.sum.Load()
	if s.Count == 0 {
		return s
	}
	s.Min, s.Max = h.min.Load(), h.max.Load()
	s.Mean = float64(s.Sum) / float64(s.Count)
	for b := range h.buckets {
		n := h.buckets[b].Load()
		if n == 0 {
			continue
		}
		lo, hi := bucketRange(b)
		s.Buckets = append(s.Buckets, HistBucket{Lo: lo, Hi: hi, N: n})
	}
	return s
}

// A Registry owns named metrics. Get-or-create accessors are safe for
// concurrent use; hot paths should resolve their metrics once and hold
// the pointers (the typed metric sets in Obs do exactly that). A nil
// *Registry returns nil metrics, which discard all writes.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// A Snapshot is a point-in-time JSON-marshalable view of every metric
// in a registry. Map keys marshal sorted, so the encoding is
// deterministic for a given set of values.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every registered metric.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}

// WriteJSON emits the snapshot as indented JSON (the -metrics-out
// artifact format).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
