package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/units"
)

func TestHistogramExactMean(t *testing.T) {
	var h Histogram
	vals := []units.Time{10 * units.Microsecond, 20 * units.Microsecond, 30 * units.Microsecond}
	for _, v := range vals {
		h.Add(v)
	}
	if h.Mean() != 20*units.Microsecond {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Min() != 10*units.Microsecond || h.Max() != 30*units.Microsecond {
		t.Fatalf("min=%v max=%v", h.Min(), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Against a sorted sample, quantiles should be within the histogram's
	// ~3.2% relative resolution.
	rng := sim.NewRNG(11)
	var h Histogram
	var raw []float64
	for i := 0; i < 50000; i++ {
		// Log-uniform latencies between 1us and 10ms.
		v := math.Exp(math.Log(1e6) + rng.Float64()*math.Log(1e4))
		raw = append(raw, v)
		h.Add(units.Time(v))
	}
	sort.Float64s(raw)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		want := raw[int(q*float64(len(raw)))]
		got := float64(h.Quantile(q))
		if rel := math.Abs(got-want) / want; rel > 0.05 {
			t.Errorf("q=%.2f: got %.0f want %.0f (rel err %.3f)", q, got, want, rel)
		}
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		var h Histogram
		for i := 0; i < 500; i++ {
			h.Add(units.Time(rng.Uint64() % uint64(10*units.Millisecond)))
		}
		prev := units.Time(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return h.Quantile(0) == h.Min() && h.Quantile(1) == h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	// Property: every value lands in a bucket whose bounds contain it.
	f := func(raw uint32) bool {
		v := units.Time(raw) * units.Nanosecond
		i := bucketIndex(v)
		lo, hi := bucketLow(i), bucketLow(i+1)
		return lo <= v && (v < hi || i == len(Histogram{}.buckets)-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Add(-5 * units.Nanosecond)
	if h.Min() != 0 || h.N() != 1 {
		t.Fatalf("min=%v n=%d", h.Min(), h.N())
	}
}

func TestHistogramStd(t *testing.T) {
	var h Histogram
	// Constant distribution: std must be (near) zero relative to mean.
	for i := 0; i < 1000; i++ {
		h.Add(100 * units.Microsecond)
	}
	if std := h.Std(); float64(std) > 0.04*float64(h.Mean()) {
		t.Fatalf("std = %v for constant data (mean %v)", std, h.Mean())
	}
	// Bimodal: std should be close to the half-gap.
	var h2 Histogram
	for i := 0; i < 1000; i++ {
		h2.Add(10 * units.Microsecond)
		h2.Add(1000 * units.Microsecond)
	}
	want := 495.0 // us
	if got := h2.Std().Microseconds(); math.Abs(got-want)/want > 0.05 {
		t.Fatalf("bimodal std = %.1fus, want ~%.0fus", got, want)
	}
}

func TestSummarize(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(units.Time(i) * units.Microsecond)
	}
	s := h.Summarize()
	if s.N != 100 {
		t.Fatalf("n=%d", s.N)
	}
	if math.Abs(s.MeanUs-50.5) > 0.01 {
		t.Fatalf("mean=%f", s.MeanUs)
	}
	if s.P50Us < 45 || s.P50Us > 55 {
		t.Fatalf("p50=%f", s.P50Us)
	}
	if s.String() == "" {
		t.Fatal("empty string")
	}
}

func TestCounterSub(t *testing.T) {
	var c Counter
	c.Add(10, 640)
	snap := c
	c.Add(5, 320)
	d := c.Sub(snap)
	if d.Packets != 5 || d.Bytes != 320 {
		t.Fatalf("delta = %+v", d)
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Std() != 0 {
		t.Fatal("empty histogram not zero")
	}
}

func TestHistogramMerge(t *testing.T) {
	// Two histograms merged must equal one histogram fed every sample.
	var a, b, all Histogram
	for i := 1; i <= 500; i++ {
		v := units.Time(i) * 37 * units.Nanosecond
		a.Add(v)
		all.Add(v)
	}
	for i := 1; i <= 300; i++ {
		v := units.Time(i) * 113 * units.Nanosecond
		b.Add(v)
		all.Add(v)
	}
	a.Merge(&b)
	if a != all {
		t.Fatalf("merged histogram differs from direct accumulation:\nmerged %+v\ndirect %+v", a.Summarize(), all.Summarize())
	}
	if a.N() != 800 {
		t.Fatalf("merged N = %d, want 800", a.N())
	}
}

func TestHistogramMergeEmptyAndNil(t *testing.T) {
	var h Histogram
	h.Add(5 * units.Microsecond)
	before := h
	var empty Histogram
	h.Merge(&empty)
	h.Merge(nil)
	if h != before {
		t.Fatal("merging empty/nil histograms changed the receiver")
	}
	// Merging into an empty receiver copies min/max.
	var dst Histogram
	dst.Merge(&before)
	if dst != before {
		t.Fatal("merge into empty receiver is not a copy")
	}
}
