// Package units defines the simulation's base quantities: time, CPU cycles,
// bit rates, and Ethernet wire arithmetic.
//
// Time is measured in integer picoseconds so that both the 10-Gigabit
// Ethernet bit time (exactly 100 ps) and CPU cycle durations at common
// frequencies can be represented without rounding drift over long runs.
package units

import (
	"fmt"
	"math/bits"
)

// Time is a point in (or span of) simulated time, in picoseconds.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Never is a sentinel meaning "not scheduled".
const Never Time = 1<<63 - 1

// Nanoseconds returns t as a float64 number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns t as a float64 number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds returns t as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats t with an adaptive unit.
func (t Time) String() string {
	switch {
	case t == Never:
		return "never"
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3gns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%.4gus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.4gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4gs", t.Seconds())
	}
}

// Cycles counts CPU clock cycles.
type Cycles int64

// Freq is a clock frequency in hertz.
type Freq int64

// DefaultCPUFreq matches the paper's Xeon E5-2690 v3 (2.60 GHz).
const DefaultCPUFreq Freq = 2_600_000_000

// mulDiv computes a*b/c with a 128-bit intermediate. All inputs must be
// non-negative and the quotient must fit in int64.
func mulDiv(a, b, c int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	q, _ := bits.Div64(hi, lo, uint64(c))
	return int64(q)
}

const picosPerSecond = 1_000_000_000_000

// Duration converts a cycle count at frequency f into simulated time,
// rounding down to the nearest picosecond (with half-up rounding).
func (f Freq) Duration(c Cycles) Time {
	if f <= 0 {
		panic("units: non-positive frequency")
	}
	hi, lo := bits.Mul64(uint64(c), picosPerSecond)
	lo2, carry := bits.Add64(lo, uint64(f)/2, 0)
	q, _ := bits.Div64(hi+carry, lo2, uint64(f))
	return Time(q)
}

// CyclesIn returns the whole number of cycles at frequency f that fit in t.
func (f Freq) CyclesIn(t Time) Cycles {
	return Cycles(mulDiv(int64(t), int64(f), picosPerSecond))
}

// BitRate is a data rate in bits per second.
type BitRate int64

// Common rates.
const (
	BitPerSecond BitRate = 1
	Kbps                 = 1000 * BitPerSecond
	Mbps                 = 1000 * Kbps
	Gbps                 = 1000 * Mbps
)

// TenGigE is the line rate of the paper's Intel 82599 ports.
const TenGigE = 10 * Gbps

// TimeForBits returns the serialization time of n bits at rate r.
func (r BitRate) TimeForBits(n int64) Time {
	if r <= 0 {
		panic("units: non-positive bit rate")
	}
	return Time(mulDiv(n, picosPerSecond, int64(r)))
}

// Ethernet wire accounting: each frame additionally occupies the 7-byte
// preamble, 1-byte SFD, and the 12-byte minimum inter-frame gap on the wire.
const (
	EthOverheadBytes = 20
	MinFrameBytes    = 64
	MaxFrameBytes    = 1518
)

// WireBytes returns the wire occupancy of a frame of the given length.
func WireBytes(frameLen int) int { return frameLen + EthOverheadBytes }

// WireTime returns the serialization time of a frame of the given length at
// rate r, including preamble and inter-frame gap.
func (r BitRate) WireTime(frameLen int) Time {
	return r.TimeForBits(int64(WireBytes(frameLen)) * 8)
}

// MaxPPS returns the maximum packet rate (packets/second) sustainable at
// rate r with frames of the given length. 64-byte frames at 10 GbE yield
// the canonical 14.88 Mpps.
func (r BitRate) MaxPPS(frameLen int) float64 {
	return float64(r) / (float64(WireBytes(frameLen)) * 8)
}

// RateForPPS returns the wire bit rate consumed by pps packets/second of the
// given frame length.
func RateForPPS(pps float64, frameLen int) BitRate {
	return BitRate(pps * float64(WireBytes(frameLen)) * 8)
}

// WireGbps converts a packet count over a window into the "throughput in
// Gbps" convention the paper uses: wire occupancy including preamble and
// inter-frame gap, so a saturated 10 GbE link reads 10 Gbps at every frame
// size (14.88 Mpps at 64B).
func WireGbps(packets int64, frameLen int, window Time) float64 {
	if window <= 0 {
		return 0
	}
	bits := float64(packets) * float64(WireBytes(frameLen)) * 8
	return bits / window.Seconds() / 1e9
}

// WireGbpsBytes computes wire throughput from exact byte and packet
// counts (for mixed-size traffic such as IMIX).
func WireGbpsBytes(packets, bytes int64, window Time) float64 {
	if window <= 0 {
		return 0
	}
	bits := float64(bytes+packets*EthOverheadBytes) * 8
	return bits / window.Seconds() / 1e9
}

// Mpps converts a packet count over a window into millions of packets/second.
func Mpps(packets int64, window Time) float64 {
	if window <= 0 {
		return 0
	}
	return float64(packets) / window.Seconds() / 1e6
}
