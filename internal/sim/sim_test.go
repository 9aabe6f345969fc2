package sim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

// tick is an actor that records its step times and re-runs every interval.
type tick struct {
	interval units.Time
	limit    int
	times    []units.Time
}

func (t *tick) Step(now units.Time) (units.Time, bool) {
	t.times = append(t.times, now)
	if len(t.times) >= t.limit {
		return 0, false
	}
	return now + t.interval, true
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	a := &tick{interval: 3 * units.Nanosecond, limit: 4}
	b := &tick{interval: 5 * units.Nanosecond, limit: 3}
	ta := s.Register("a", a)
	tb := s.Register("b", b)
	s.WakeAt(ta, 0)
	s.WakeAt(tb, 0)
	s.RunUntil(units.Microsecond)

	wantA := []units.Time{0, 3000, 6000, 9000}
	wantB := []units.Time{0, 5000, 10000}
	if len(a.times) != len(wantA) || len(b.times) != len(wantB) {
		t.Fatalf("step counts: a=%d b=%d", len(a.times), len(b.times))
	}
	for i, w := range wantA {
		if a.times[i] != w {
			t.Errorf("a step %d at %v, want %v", i, a.times[i], w)
		}
	}
	for i, w := range wantB {
		if b.times[i] != w {
			t.Errorf("b step %d at %v, want %v", i, b.times[i], w)
		}
	}
	if s.Now() != units.Microsecond {
		t.Errorf("clock = %v, want deadline", s.Now())
	}
}

func TestSchedulerTieBreakByRegistration(t *testing.T) {
	s := NewScheduler()
	var order []string
	mk := func(name string) *Task {
		var task *Task
		task = s.Register(name, StepFunc(func(now units.Time) (units.Time, bool) {
			order = append(order, name)
			return 0, false
		}))
		return task
	}
	t1 := mk("first")
	t2 := mk("second")
	t3 := mk("third")
	// Wake in reverse order at the same instant; registration order must win.
	s.WakeAt(t3, 10)
	s.WakeAt(t2, 10)
	s.WakeAt(t1, 10)
	s.RunUntil(20)
	if len(order) != 3 || order[0] != "first" || order[1] != "second" || order[2] != "third" {
		t.Fatalf("order = %v", order)
	}
}

func TestWakeAtEarlierWins(t *testing.T) {
	s := NewScheduler()
	var ran units.Time = -1
	task := s.Register("x", StepFunc(func(now units.Time) (units.Time, bool) {
		ran = now
		return 0, false
	}))
	s.WakeAt(task, 100*units.Nanosecond)
	s.WakeAt(task, 40*units.Nanosecond) // earlier: should win
	s.WakeAt(task, 70*units.Nanosecond) // later: ignored
	s.RunUntil(units.Microsecond)
	if ran != 40*units.Nanosecond {
		t.Fatalf("ran at %v, want 40ns", ran)
	}
}

func TestWakeInPastClamps(t *testing.T) {
	s := NewScheduler()
	count := 0
	var task *Task
	task = s.Register("x", StepFunc(func(now units.Time) (units.Time, bool) {
		count++
		if count == 1 {
			return now + 50*units.Nanosecond, true
		}
		return 0, false
	}))
	s.WakeAt(task, 10*units.Nanosecond)
	s.RunUntil(20 * units.Nanosecond)
	// Now s.Now()==20ns; waking at 5ns must clamp to now, not panic.
	s.WakeAt(task, 5*units.Nanosecond)
	if task.When() < 20*units.Nanosecond {
		t.Fatalf("clamped wake time = %v", task.When())
	}
}

func TestDeadlineExcludesLaterSteps(t *testing.T) {
	s := NewScheduler()
	a := &tick{interval: 10 * units.Nanosecond, limit: 1000}
	ta := s.Register("a", a)
	s.WakeAt(ta, 0)
	s.RunUntil(35 * units.Nanosecond)
	if len(a.times) != 4 { // 0, 10, 20, 30
		t.Fatalf("steps before deadline = %d, want 4", len(a.times))
	}
	s.RunUntil(55 * units.Nanosecond)
	if len(a.times) != 6 {
		t.Fatalf("resume steps = %d, want 6", len(a.times))
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds coincide %d/1000 times", same)
	}
}

func TestRNGDeriveIndependent(t *testing.T) {
	r := NewRNG(7)
	d1 := r.Derive("alpha")
	d2 := r.Derive("beta")
	d1again := r.Derive("alpha")
	if d1.Uint64() != d1again.Uint64() {
		t.Fatal("Derive not deterministic by label")
	}
	if d1.Uint64() == d2.Uint64() {
		t.Fatal("different labels produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(2)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %f", mean)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	counts := make([]int, 7)
	for i := 0; i < 7000; i++ {
		counts[r.Intn(7)]++
	}
	for v, c := range counts {
		if c == 0 {
			t.Errorf("value %d never drawn", v)
		}
	}
}
