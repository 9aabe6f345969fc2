package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWireTime64B(t *testing.T) {
	// 64B + 20B overhead = 84B = 672 bits; at 10 Gbps the bit time is
	// exactly 100 ps, so the frame takes 67.2 ns on the wire.
	got := TenGigE.WireTime(64)
	if want := 67_200 * Picosecond; got != want {
		t.Fatalf("WireTime(64) = %v, want %v", got, want)
	}
}

func TestMaxPPSCanonical(t *testing.T) {
	got := TenGigE.MaxPPS(64)
	if math.Abs(got-14_880_952.38) > 1 {
		t.Fatalf("MaxPPS(64) = %f, want ~14.88M", got)
	}
	if got := TenGigE.MaxPPS(1518); math.Abs(got-812_743.8) > 1 {
		t.Fatalf("MaxPPS(1518) = %f, want ~812743", got)
	}
}

func TestFreqDurationRoundTrip(t *testing.T) {
	f := DefaultCPUFreq
	for _, c := range []Cycles{0, 1, 13, 26, 100, 174, 1_000_000, 2_600_000_000} {
		d := f.Duration(c)
		back := f.CyclesIn(d)
		if diff := int64(back - c); diff < -1 || diff > 1 {
			t.Errorf("round trip %d cycles -> %v -> %d cycles", c, d, back)
		}
	}
	// One cycle at 2.6 GHz is 5/13 ns = 384.615... ps, rounded to 385.
	if d := f.Duration(1); d != 385*Picosecond {
		t.Errorf("Duration(1) = %v, want 385ps", d)
	}
	// 26 cycles is exactly 10 ns.
	if d := f.Duration(26); d != 10*Nanosecond {
		t.Errorf("Duration(26) = %v, want 10ns", d)
	}
}

func TestTimeForBitsExact(t *testing.T) {
	if got := TenGigE.TimeForBits(1); got != 100*Picosecond {
		t.Fatalf("bit time = %v, want 100ps", got)
	}
	if got := (1 * Gbps).TimeForBits(8); got != 8*Nanosecond {
		t.Fatalf("byte at 1G = %v, want 8ns", got)
	}
}

func TestMpps(t *testing.T) {
	if got := Mpps(14_880_952, Second); math.Abs(got-14.880952) > 1e-6 {
		t.Fatalf("Mpps = %f", got)
	}
}

func TestRateForPPS(t *testing.T) {
	r := RateForPPS(14_880_952.38, 64)
	if math.Abs(float64(r-TenGigE)) > 1000 {
		t.Fatalf("RateForPPS inverse = %v, want ~10G", r)
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		500 * Picosecond:  "500ps",
		Never:             "never",
		2 * Microsecond:   "2us",
		3 * Millisecond:   "3ms",
		42 * Nanosecond:   "42ns",
		2 * Second:        "2s",
		1500 * Nanosecond: "1.5us",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}

func TestWireTimeMonotonic(t *testing.T) {
	// Property: wire time strictly increases with frame length and
	// decreases with rate.
	f := func(a, b uint16) bool {
		la := int(a%1455) + MinFrameBytes
		lb := int(b%1455) + MinFrameBytes
		ta, tb := TenGigE.WireTime(la), TenGigE.WireTime(lb)
		if la < lb && ta >= tb {
			return false
		}
		return TenGigE.WireTime(la) < (1 * Gbps).WireTime(la)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCyclesInAdditive(t *testing.T) {
	// Property: CyclesIn is (approximately) additive over time spans.
	f := func(a, b uint32) bool {
		// Bound inputs so ta+tb stays well inside the Time range.
		ta, tb := Time(a%2_000_000_000)*Nanosecond, Time(b%2_000_000_000)*Nanosecond
		sum := DefaultCPUFreq.CyclesIn(ta) + DefaultCPUFreq.CyclesIn(tb)
		tot := DefaultCPUFreq.CyclesIn(ta + tb)
		d := int64(tot - sum)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWireGbpsBytesAgreesWithFixedSize(t *testing.T) {
	pkts := int64(1000)
	fixed := WireGbps(pkts, 256, Millisecond)
	byBytes := WireGbpsBytes(pkts, pkts*256, Millisecond)
	if math.Abs(fixed-byBytes) > 1e-9 {
		t.Fatalf("%f vs %f", fixed, byBytes)
	}
	if WireGbpsBytes(1, 64, 0) != 0 {
		t.Fatal("zero window")
	}
}
