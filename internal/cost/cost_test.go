package cost

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/units"
)

func TestMeterDrain(t *testing.T) {
	m := NewMeter(Default(), nil)
	m.Charge(26) // 26 cycles at 2.6GHz = 10ns
	if d := m.Drain(); d != 10*units.Nanosecond {
		t.Fatalf("drain = %v, want 10ns", d)
	}
	if m.Pending() != 0 {
		t.Fatal("pending not reset")
	}
	if m.Total() != 26 {
		t.Fatalf("total = %d", m.Total())
	}
	if d := m.Drain(); d != 0 {
		t.Fatalf("second drain = %v", d)
	}
}

func TestCopyCostScalesWithBytes(t *testing.T) {
	mod := Default()
	c64 := mod.CopyCost(64)
	c1024 := mod.CopyCost(1024)
	if c64 >= c1024 {
		t.Fatalf("copy cost not increasing: %d vs %d", c64, c1024)
	}
	// Base must dominate for tiny copies, bytes for big ones.
	if c64 > 3*mod.CopyBase {
		t.Fatalf("64B copy unexpectedly expensive: %d", c64)
	}
	if c1024 < 5*mod.CopyBase {
		t.Fatalf("1024B copy unexpectedly cheap: %d", c1024)
	}
}

func TestChargeNoisyMeanAboveBase(t *testing.T) {
	m := NewMeter(Default(), sim.NewRNG(5))
	const base, n = 100, 20000
	for i := 0; i < n; i++ {
		m.ChargeNoisy(base, 0.5)
	}
	mean := float64(m.Pending()) / n
	// E[c(1+0.5·Exp)] = 150.
	if mean < 140 || mean > 160 {
		t.Fatalf("noisy mean = %f, want ~150", mean)
	}
}

func TestChargeNoisyZeroFracDeterministic(t *testing.T) {
	m := NewMeter(Default(), sim.NewRNG(5))
	m.ChargeNoisy(100, 0)
	if m.Pending() != 100 {
		t.Fatalf("pending = %d", m.Pending())
	}
}

// TestNoisyChargesMatchExpFloat64 holds ChargeNoisy and ChargeNoisyBatch to
// the per-frame expression c + int64(c·frac·ExpFloat64()) on a twin stream:
// same cycles, same stream position after.
func TestNoisyChargesMatchExpFloat64(t *testing.T) {
	for _, tc := range []struct {
		c    units.Cycles
		frac float64
		n    int
	}{{931, 0.02, 32}, {80, 0.04, 7}, {136, 0.25, 1}, {3000, 0.05, 256}} {
		one, batch := NewMeter(Default(), sim.NewRNG(9)), NewMeter(Default(), sim.NewRNG(9))
		ref := sim.NewRNG(9)
		want := units.Cycles(0)
		for i := 0; i < tc.n; i++ {
			one.ChargeNoisy(tc.c, tc.frac)
			want += tc.c + units.Cycles(float64(tc.c)*tc.frac*ref.ExpFloat64())
		}
		batch.ChargeNoisyBatch(tc.c, tc.frac, tc.n)
		if one.Pending() != want || batch.Pending() != want {
			t.Errorf("%+v: ChargeNoisy %d, ChargeNoisyBatch %d, want %d", tc, one.Pending(), batch.Pending(), want)
		}
		next := ref.Uint64()
		if one.RNG.Uint64() != next || batch.RNG.Uint64() != next {
			t.Errorf("%+v: stream position differs from ExpFloat64's", tc)
		}
	}
}

func TestStallRoundTrip(t *testing.T) {
	f := func(us uint16) bool {
		m := NewMeter(Default(), nil)
		d := units.Time(us) * units.Microsecond
		m.Stall(d)
		got := m.Drain()
		diff := got - d
		if diff < 0 {
			diff = -diff
		}
		return diff <= units.Nanosecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeChargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMeter(Default(), nil).Charge(-1)
}

func TestDefaultModelBudgetSanity(t *testing.T) {
	// A p2p forwarding path (rx burst + tx burst + per-packet handling)
	// must fit inside the 64B@10G budget of 174 cycles/packet for the
	// fastest switches to be able to saturate the link.
	mod := Default()
	perPkt := mod.RxPkt + mod.TxPkt // amortized burst costs are ~2 cycles/pkt at 32
	if perPkt > 100 {
		t.Fatalf("primitive I/O cost %d cycles/pkt leaves no room for switching", perPkt)
	}
}

func TestModulationPhases(t *testing.T) {
	mo := Modulation{HighFactor: 1.2, HighDur: units.Millisecond, LowFactor: 0.9, LowDur: units.Millisecond}
	if f := mo.Factor(100 * units.Microsecond); f != 1.2 {
		t.Fatalf("high phase factor = %f", f)
	}
	if f := mo.Factor(1500 * units.Microsecond); f != 0.9 {
		t.Fatalf("low phase factor = %f", f)
	}
	// Periodic.
	if f := mo.Factor(2100 * units.Microsecond); f != 1.2 {
		t.Fatalf("wrapped factor = %f", f)
	}
	if got := ScaleBy(mo.Factor(0), 1000); got != 1200 {
		t.Fatalf("scale = %d", got)
	}
	var zero Modulation
	if zero.Factor(units.Second) != 1 || ScaleBy(zero.Factor(0), 77) != 77 {
		t.Fatal("zero modulation must be identity")
	}
}

func TestModulationAverageNearUnity(t *testing.T) {
	// The instability models must keep the time-averaged factor close to
	// 1 relative to their amplitude, so R⁺ calibration stays valid.
	mo := Modulation{HighFactor: 1.15, HighDur: 1200 * units.Microsecond,
		LowFactor: 0.97, LowDur: 800 * units.Microsecond}
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		// Sample exactly one 2 ms period.
		sum += mo.Factor(units.Time(i) * 200 * units.Nanosecond)
	}
	avg := sum / n
	if avg < 1.0 || avg > 1.09 {
		t.Fatalf("avg factor = %f", avg)
	}
}
