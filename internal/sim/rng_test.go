package sim

import (
	"math"
	"testing"
)

// noiseScales are the c·frac products the switch models hand to
// cost.Meter's noisy charges (full 32-frame bursts, 64 B frames), plus the
// extremes.
var noiseScales = []float64{
	vppScale,                 // VPP dpdk-input
	(35 + 32*52) * 0.02,      // VPP l2-patch
	(30 + 32*31) * 0.015,     // BESS QueueInc
	(18 + 32*48) * 0.02,      // FastClick FromDPDKDevice
	(70 + 27 + 39) * 0.25,    // t4p4s parse
	27 * 0.25,                // t4p4s deparse
	(30 + 50) * 0.04,         // OvS per frame
	21 * 0.03,                // VALE ptnet crossing
	(36 + 85 + 23) * 0.03,    // VALE NIC frame
	(70 + 32*(33+39)) * 0.05, // Snabb NIC app, warm JIT
	0, 1e-3, 1, 1e4,
}

// vppScale is VPP's dpdk-input scale (node fixed + 32 frames' per-frame
// cost, times VPP's jitter fraction).
const vppScale = (35 + 32*28) * 0.02

// refTruncExp is the expression TruncExp replaces, for the draw m.
func refTruncExp(scale float64, m uint64) int64 {
	return int64(scale * -math.Log(float64(m)/(1<<53)))
}

// TestTruncExpMatchesExpFloat64 runs two streams on one seed, one through
// TruncExp and one through ExpFloat64: every draw and the stream position
// after it must agree.
func TestTruncExpMatchesExpFloat64(t *testing.T) {
	const draws = 400_000 // per scale; 5.6 M in all
	for si, scale := range noiseScales {
		a, b := NewRNG(uint64(si)+1), NewRNG(uint64(si)+1)
		for n := 0; n < draws; n++ {
			got, want := a.TruncExp(scale), int64(scale*b.ExpFloat64())
			if got != want {
				t.Fatalf("scale %g draw %d: TruncExp = %d, ExpFloat64 gives %d", scale, n, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("scale %g: streams diverged", scale)
		}
	}
}

// TestTruncExpRedrawsZero crafts a state whose next 53-bit draw is zero:
// TruncExp must redraw exactly as ExpFloat64 does.
func TestTruncExpRedrawsZero(t *testing.T) {
	seed := stateBefore(42) // 42>>11 == 0
	if m := NewRNG(seed).Uint64(); m != 42 {
		t.Fatalf("crafted state yields %d, want 42", m)
	}
	a, b := NewRNG(seed), NewRNG(seed)
	if got, want := a.TruncExp(vppScale), int64(vppScale*b.ExpFloat64()); got != want {
		t.Fatalf("TruncExp = %d, ExpFloat64 gives %d", got, want)
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("streams diverged after the redraw")
	}
}

// stateBefore returns the RNG state whose next Uint64 is out, by inverting
// the SplitMix64 finalizer step by step.
func stateBefore(out uint64) uint64 {
	unshift := func(y uint64, s uint) uint64 { // inverts y ^= y >> s
		for z := y >> s; z != 0; z >>= s {
			y ^= z
		}
		return y
	}
	inv := func(a uint64) uint64 { // inverse of odd a mod 2⁶⁴ (Newton)
		x := a
		for i := 0; i < 5; i++ {
			x *= 2 - a*x
		}
		return x
	}
	z := unshift(out, 31) * inv(0x94d049bb133111eb)
	z = unshift(z, 27) * inv(0xbf58476d1ce4e5b9)
	return unshift(z, 30) - 0x9e3779b97f4a7c15
}

// TestTruncExpBoundarySweep tests every draw within ±2¹² of the draw
// 2⁵³·exp(−j/scale) at which scale·x crosses the integer j: there the
// bracket straddles and the fallback must answer.
func TestTruncExpBoundarySweep(t *testing.T) {
	const half = 1 << 12
	for _, scale := range noiseScales {
		top := int(36.8 * scale)
		stride := top/64 + 1
		for j := 1; j <= top; j += stride {
			m0 := uint64(math.Ldexp(math.Exp(-float64(j)/scale), 53))
			for m := max(m0, half+1) - half; m <= m0+half && m < 1<<53; m++ {
				if got, want := truncExpBits(scale, m), refTruncExp(scale, m); got != want {
					t.Fatalf("scale %g m %d: got %d, want %d", scale, m, got, want)
				}
			}
		}
	}
}

// TestTruncExpCellEdges aims scale·x within a few ulps of an integer for
// draws on a table cell edge, where x sits on a bracket end and math.Log's
// rounding can cross the unwidened end: only the slack keeps the bracket
// honest there.
func TestTruncExpCellEdges(t *testing.T) {
	for e := 0; e <= 52; e++ {
		for i := uint64(0); i < 1<<truncExpTabBits; i += 29 {
			m := uint64(1)<<e | i<<e>>truncExpTabBits
			for _, m := range []uint64{m, m - 1} {
				if m == 0 {
					continue
				}
				x := -math.Log(float64(m) / (1 << 53))
				for _, k := range []float64{1, 2, 3, 7, 20} {
					s := k / x
					for d := 0; d < 8; d++ {
						s = math.Nextafter(s, 0)
					}
					for d := 0; d < 16; d++ {
						if got, want := truncExpBits(s, m), refTruncExp(s, m); got != want {
							t.Fatalf("scale %v m %d: got %d, want %d", s, m, got, want)
						}
						s = math.Nextafter(s, math.Inf(1))
					}
				}
			}
		}
	}
}

// TestTruncExpFallbackRate holds the share of draws that need math.Log at
// VPP's scale under 1 % (about scale·ln2/2¹¹ in theory).
func TestTruncExpFallbackRate(t *testing.T) {
	const draws = 1_000_000
	r := NewRNG(7)
	fallbacks := 0
	for n := 0; n < draws; n++ {
		m := r.Uint64() >> 11
		if m == 0 {
			continue
		}
		if lo, hi := truncExpBracket(vppScale, m); lo != hi {
			fallbacks++
		}
	}
	rate := float64(fallbacks) / draws
	t.Logf("fallback rate at scale %.2f: %.3f %%", vppScale, 100*rate)
	if rate >= 0.01 {
		t.Errorf("fallback rate %.3f %% ≥ 1 %%", 100*rate)
	}
}

// FuzzTruncExp checks the exact draw against its reference for any
// non-negative scale whose products fit an int64 and any 53-bit draw.
func FuzzTruncExp(f *testing.F) {
	for _, s := range noiseScales {
		f.Add(s, uint64(1)<<63)
		f.Add(s, uint64(1)<<11)
	}
	f.Add(vppScale, ^uint64(0))
	f.Fuzz(func(t *testing.T, scale float64, bits uint64) {
		m := bits >> 11
		if m == 0 || !(scale >= 0 && scale <= 1e15) {
			t.Skip()
		}
		if got, want := truncExpBits(scale, m), refTruncExp(scale, m); got != want {
			t.Fatalf("scale %v m %d: got %d, want %d", scale, m, got, want)
		}
	})
}

var sinkInt int64

// BenchmarkTruncExp times the exact draw at VPP's scale; compare
// BenchmarkTruncExpReference, the expression it replaces.
func BenchmarkTruncExp(b *testing.B) {
	r := NewRNG(1)
	var acc int64
	for i := 0; i < b.N; i++ {
		acc += r.TruncExp(vppScale)
	}
	sinkInt = acc
}

func BenchmarkTruncExpReference(b *testing.B) {
	r := NewRNG(1)
	var acc int64
	for i := 0; i < b.N; i++ {
		acc += int64(vppScale * r.ExpFloat64())
	}
	sinkInt = acc
}
