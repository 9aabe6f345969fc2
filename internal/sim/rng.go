package sim

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic random source (SplitMix64 core).
// Every component derives its own RNG from the run seed so that adding or
// reordering components does not perturb unrelated random streams.
type RNG struct {
	state uint64
}

// NewRNG returns an RNG seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Derive returns an independent RNG deterministically derived from r's seed
// and the given label, without consuming r's stream.
func (r *RNG) Derive(label string) *RNG {
	h := r.state + 0x9e3779b97f4a7c15
	for _, c := range []byte(label) {
		h ^= uint64(c)
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return NewRNG(h)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponential variate with mean 1. It is the
// specification TruncExp is tested against.
func (r *RNG) ExpFloat64() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// TruncExp returns int64(scale * r.ExpFloat64()), bit for bit, and consumes
// the stream exactly as ExpFloat64 does, but skips the logarithm on all but
// about scale·ln2/2¹¹ of draws.
//
// ExpFloat64 draws m = Uint64()>>11 in [1, 2⁵³) and returns −ln(m/2⁵³).
// With m = 2^e·(1+f), that is (53−e)·ln2 − ln(1+f), and the top
// B = truncExpTabBits bits of f name the cell i with f in [i/2^B,
// (i+1)/2^B). Because ln is monotone, the true −ln(m/2⁵³) lies in
// [expLn2[e] − lnEdge[i+1], expLn2[e] − lnEdge[i]]. math.Log is documented
// to be within 1 ulp, and each table entry and each subtraction is within
// an ulp too; for values up to 37 (−ln 2⁻⁵³ ≈ 36.7) every one of those
// errors is below 1e-14, so widening the bracket by truncExpSlack = 1e-12
// on each side contains whatever math.Log returns with two orders of
// margin. x ↦ int64(fl(scale·x)) is monotone, so ExpFloat64's truncated
// product lies in [lo, hi] of the truncated bracket ends, and lo == hi
// pins it. Only when the bracket straddles an integer does TruncExp fall
// back to ExpFloat64's expression verbatim.
func (r *RNG) TruncExp(scale float64) int64 {
	m := r.Uint64() >> 11
	for m == 0 {
		m = r.Uint64() >> 11
	}
	return truncExpBits(scale, m)
}

// truncExpBits is TruncExp for the 53-bit draw m (1 ≤ m < 2⁵³).
func truncExpBits(scale float64, m uint64) int64 {
	if lo, hi := truncExpBracket(scale, m); lo == hi {
		return lo
	}
	return int64(scale * -math.Log(float64(m)/(1<<53)))
}

// truncExpBracket returns the truncated scale·x at both ends of the slack-
// widened table bracket around x = −ln(m/2⁵³).
func truncExpBracket(scale float64, m uint64) (lo, hi int64) {
	e := bits.Len64(m) - 1
	// Drop the leading one, then keep the next B bits; for e = 0 the
	// shift by 64 leaves 0.
	i := (m << uint(64-e)) >> (64 - truncExpTabBits)
	base := expLn2[e&63]
	lo = int64(scale * (base - lnEdge[i+1] - truncExpSlack))
	hi = int64(scale * (base - lnEdge[i] + truncExpSlack))
	return lo, hi
}

const (
	truncExpTabBits = 11    // B: lnEdge has 2^B+1 entries (16 KB)
	truncExpSlack   = 1e-12 // ≥ 100× the rounding error of any bracket end
)

var (
	// lnEdge[i] = ln(1 + i/2^B), the cell edges of ln over [1, 2].
	lnEdge [1<<truncExpTabBits + 1]float64
	// expLn2[e] = (53−e)·ln2 = −ln(2^e/2⁵³) for e ≤ 52; indexed e&63 so
	// the compiler drops the bounds check.
	expLn2 [64]float64
)

func init() {
	for i := range lnEdge {
		// float64(...) rounds the quotient (a product by 2^-B to the
		// compiler), so no architecture fuses it into the add. It is exact
		// either way; CI's scan for fused float ops expects none.
		lnEdge[i] = math.Log(1 + float64(float64(i)/(1<<truncExpTabBits)))
	}
	for e := 0; e <= 52; e++ {
		expLn2[e] = float64(53-e) * math.Ln2
	}
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }
