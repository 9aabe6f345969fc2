// Package stats provides the streaming statistics the benchmark harness
// reports: an HDR-style log-linear latency histogram with quantiles, and
// packet/byte rate counters.
package stats

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/units"
)

// Histogram is a log-linear histogram over units.Time values, HDR-style:
// 32 linear buckets per power-of-two decade, covering 1 ns to ~4.5 h with
// ≤3.2% relative error. The zero value is ready to use.
type Histogram struct {
	buckets [64 * sub]int64
	count   int64
	sum     units.Time
	min     units.Time
	max     units.Time
}

const sub = 32 // linear subdivisions per power of two

func bucketIndex(t units.Time) int {
	v := uint64(t) / uint64(units.Nanosecond)
	if v < sub {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // position of top bit, >= 5 here
	shift := exp - 5
	mant := (v >> uint(shift)) & (sub - 1)
	return (shift+1)*sub + int(mant)
}

// bucketLow returns the lower bound of bucket i, inverse of bucketIndex.
func bucketLow(i int) units.Time {
	if i < sub {
		return units.Time(i) * units.Nanosecond
	}
	shift := i/sub - 1
	mant := uint64(i%sub) | sub
	return units.Time(mant<<uint(shift)) * units.Nanosecond
}

// Add records one latency observation. Negative values are clamped to zero.
func (h *Histogram) Add(t units.Time) {
	if t < 0 {
		t = 0
	}
	if h.count == 0 {
		h.min, h.max = t, t
	} else {
		if t < h.min {
			h.min = t
		}
		if t > h.max {
			h.max = t
		}
	}
	h.count++
	h.sum += t
	h.buckets[bucketIndex(t)]++
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.count }

// Reset clears the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

// Merge folds o's observations into h. Bucket counts, totals and sums add
// exactly, so merging per-direction histograms of a bidirectional run
// yields the same distribution as recording every sample into one
// histogram. A nil or empty o is a no-op.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	if h.count == 0 {
		h.min, h.max = o.min, o.max
	} else {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	h.count += o.count
	h.sum += o.sum
	for i, c := range o.buckets {
		if c != 0 {
			h.buckets[i] += c
		}
	}
}

// Mean returns the exact mean (sums are kept exactly).
func (h *Histogram) Mean() units.Time {
	if h.count == 0 {
		return 0
	}
	return h.sum / units.Time(h.count)
}

// Min returns the smallest observation.
func (h *Histogram) Min() units.Time { return h.min }

// Max returns the largest observation.
func (h *Histogram) Max() units.Time { return h.max }

// Quantile returns an approximation of the q-quantile (0 ≤ q ≤ 1).
func (h *Histogram) Quantile(q float64) units.Time {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(q * float64(h.count))
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen > rank {
			lo := bucketLow(i)
			if lo < h.min {
				lo = h.min
			}
			if lo > h.max {
				lo = h.max
			}
			return lo
		}
	}
	return h.max
}

// Std returns the standard deviation estimated from bucket midpoints.
func (h *Histogram) Std() units.Time {
	if h.count < 2 {
		return 0
	}
	mean := float64(h.Mean())
	var acc float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		mid := float64(bucketLow(i)) + float64(float64(bucketLow(i+1)-bucketLow(i))/2)
		d := mid - mean
		// The explicit conversions round the halving and the product, so no
		// architecture may fuse either into its add: digests must not
		// depend on FMA support.
		acc += float64(d * d * float64(c))
	}
	return units.Time(math.Sqrt(acc / float64(h.count)))
}

// Summary is a frozen snapshot of a latency distribution, in microseconds
// (the unit the paper's tables use).
type Summary struct {
	N                  int64
	MeanUs, StdUs      float64
	MinUs, MaxUs       float64
	P50Us, P99Us, P999 float64
}

// Summarize freezes the histogram into a Summary.
func (h *Histogram) Summarize() Summary {
	return Summary{
		N:      h.count,
		MeanUs: h.Mean().Microseconds(),
		StdUs:  h.Std().Microseconds(),
		MinUs:  h.min.Microseconds(),
		MaxUs:  h.max.Microseconds(),
		P50Us:  h.Quantile(0.50).Microseconds(),
		P99Us:  h.Quantile(0.99).Microseconds(),
		P999:   h.Quantile(0.999).Microseconds(),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1fus std=%.1fus p50=%.1fus p99=%.1fus max=%.1fus",
		s.N, s.MeanUs, s.StdUs, s.P50Us, s.P99Us, s.MaxUs)
}

// Counter tracks packets and bytes, with a snapshot-window helper so a
// measurement window can exclude warmup traffic.
type Counter struct {
	Packets int64
	Bytes   int64
}

// Add records n packets totalling b bytes.
func (c *Counter) Add(n, b int64) {
	c.Packets += n
	c.Bytes += b
}

// Sub returns c - o (used to subtract a warmup snapshot).
func (c Counter) Sub(o Counter) Counter {
	return Counter{Packets: c.Packets - o.Packets, Bytes: c.Bytes - o.Bytes}
}
