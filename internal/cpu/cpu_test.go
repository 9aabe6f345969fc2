package cpu

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestPollCoreAdvancesByCharge(t *testing.T) {
	s := sim.NewScheduler()
	var times []units.Time
	core := NewPollCore(s, "c", cost.NewMeter(cost.Default(), nil),
		func(now units.Time, m *cost.Meter) bool {
			times = append(times, now)
			m.Charge(2600) // 1 us
			return true
		})
	core.Start(0)
	s.RunUntil(5 * units.Microsecond)
	// Steps at 0, 1us, 2us, 3us, 4us, 5us.
	if len(times) != 6 {
		t.Fatalf("steps = %d", len(times))
	}
	if times[1] != units.Microsecond {
		t.Fatalf("second step at %v", times[1])
	}
}

func TestPollCoreIdleChargesIdlePoll(t *testing.T) {
	s := sim.NewScheduler()
	core := NewPollCore(s, "c", cost.NewMeter(cost.Default(), nil),
		func(now units.Time, m *cost.Meter) bool { return false })
	core.Start(0)
	s.RunUntil(10 * units.Microsecond)
	if core.Busy != 0 || core.Idle == 0 {
		t.Fatalf("busy=%d idle=%d", core.Busy, core.Idle)
	}
}

func TestPollCoreIdleStepCoarsens(t *testing.T) {
	s := sim.NewScheduler()
	calls := 0
	core := NewPollCore(s, "c", cost.NewMeter(cost.Default(), nil),
		func(now units.Time, m *cost.Meter) bool { calls++; return false })
	core.IdleStep = units.Microsecond
	core.Start(0)
	s.RunUntil(10 * units.Microsecond)
	if calls != 11 {
		t.Fatalf("calls = %d, want 11 with 1us idle step", calls)
	}
}

func TestIRQCoreSleepsUntilWake(t *testing.T) {
	s := sim.NewScheduler()
	work := 0
	pending := 0
	core := NewIRQCore(s, "c", cost.NewMeter(cost.Default(), sim.NewRNG(1)),
		func(now units.Time, m *cost.Meter) bool {
			if pending == 0 {
				return false
			}
			work += pending
			m.Charge(units.Cycles(pending) * 100)
			pending = 0
			return true
		})
	// Nothing happens without a wake.
	s.RunUntil(10 * units.Microsecond)
	if work != 0 {
		t.Fatal("core ran while asleep")
	}
	pending = 5
	core.Wake(20 * units.Microsecond)
	s.RunUntil(50 * units.Microsecond)
	if work != 5 {
		t.Fatalf("work = %d", work)
	}
	if core.Wakeups != 1 {
		t.Fatalf("wakeups = %d", core.Wakeups)
	}
}

func TestIRQCoreWakeCannotPreemptBusy(t *testing.T) {
	s := sim.NewScheduler()
	var steps []units.Time
	busy := true
	var core *IRQCore
	core = NewIRQCore(s, "c", cost.NewMeter(cost.Default(), sim.NewRNG(1)),
		func(now units.Time, m *cost.Meter) bool {
			steps = append(steps, now)
			if busy {
				busy = false
				m.Charge(26000) // 10 us of work
				return true
			}
			return false
		})
	core.Wake(0)
	// A wake for t=1us while the core is busy until ~10us must not make
	// it step early.
	s.RunUntil(500 * units.Nanosecond)
	core.Wake(units.Microsecond)
	s.RunUntil(units.Millisecond)
	if len(steps) < 2 {
		t.Fatalf("steps = %v", steps)
	}
	if steps[1] < 10*units.Microsecond {
		t.Fatalf("second step at %v — wake preempted busy core", steps[1])
	}
}

func TestIRQWakeChargesInterruptCost(t *testing.T) {
	s := sim.NewScheduler()
	meter := cost.NewMeter(cost.Default(), sim.NewRNG(1))
	core := NewIRQCore(s, "c", meter, func(now units.Time, m *cost.Meter) bool { return false })
	core.Wake(0)
	if meter.Pending() != cost.Default().Interrupt+cost.Default().Syscall {
		t.Fatalf("pending = %d", meter.Pending())
	}
	// Second wake while not sleeping (queued) charges nothing extra.
	core.Wake(0)
	if meter.Pending() != cost.Default().Interrupt+cost.Default().Syscall {
		t.Fatalf("double charge: %d", meter.Pending())
	}
}
