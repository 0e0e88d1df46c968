package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterSums(t *testing.T) {
	var c Counter
	c.Add(3)
	for i := 0; i < 100; i++ {
		c.Add(2)
	}
	if got := c.Value(); got != 203 {
		t.Fatalf("Value = %d, want 203", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{-3, 0, 1, 5, 5, 1024} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 || s.Sum != 1032 {
		t.Fatalf("count/sum = %d/%d, want 6/1032", s.Count, s.Sum)
	}
	if s.Min != -3 || s.Max != 1024 {
		t.Fatalf("min/max = %d/%d, want -3/1024", s.Min, s.Max)
	}
	want := map[[2]int64]int64{
		{math.MinInt64, 0}: 2, // -3 and 0
		{1, 1}:             1,
		{4, 7}:             2, // the two 5s
		{1024, 2047}:       1,
	}
	if len(s.Buckets) != len(want) {
		t.Fatalf("got %d non-empty buckets, want %d: %+v", len(s.Buckets), len(want), s.Buckets)
	}
	for _, b := range s.Buckets {
		if want[[2]int64{b.Lo, b.Hi}] != b.N {
			t.Errorf("bucket [%d,%d] = %d, want %d", b.Lo, b.Hi, b.N, want[[2]int64{b.Lo, b.Hi}])
		}
	}
}

func TestHistogramCountMinMax(t *testing.T) {
	h := NewHistogram()
	for shard := 0; shard < 16; shard++ {
		h.Observe(int64(shard + 1))
	}
	s := h.Snapshot()
	if s.Count != 16 {
		t.Fatalf("count = %d, want 16", s.Count)
	}
	if s.Min != 1 || s.Max != 16 {
		t.Fatalf("min/max = %d/%d, want 1/16", s.Min, s.Max)
	}
}

func TestHistogramEmpty(t *testing.T) {
	s := NewHistogram().Snapshot()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
}

func TestNilMetricsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	c.Add(1)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil metrics recorded values")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry returned a metric")
	}
	if s := r.Snapshot(); s.Counters != nil {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter not idempotent")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("Histogram not idempotent")
	}
	r.Counter("a").Add(2)
	r.Gauge("g").Set(-1)
	r.Histogram("h").Observe(9)
	s := r.Snapshot()
	if s.Counters["a"] != 2 || s.Gauges["g"] != -1 || s.Histograms["h"].Count != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("z").Add(1)
	r.Counter("a").Add(2)
	r.Histogram("lat").Observe(100)
	var b1, b2 bytes.Buffer
	if err := r.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("snapshot encoding not deterministic")
	}
	var s Snapshot
	if err := json.Unmarshal(b1.Bytes(), &s); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	if s.Counters["a"] != 2 || s.Counters["z"] != 1 {
		t.Fatalf("round-tripped snapshot = %+v", s)
	}
}
