package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/units"
)

// The idle-poll elision equivalence harness: a scripted owner with
// producers is simulated twice from one script, once with the core's
// Waiter set and once without, and every observable — the trace of polls
// that did anything, Busy, Idle, Meter.Total, the scheduler's Steps and the
// core's next poll — must agree at every RunUntil cut.
//
// The script runs at 1 GHz with every price a multiple of 10 cycles, so
// every poll boundary and every producer step lies on the same 10 ns grid:
// producers land exactly on the core's poll boundaries all the time, which
// is what exercises the same-instant tie rule.

const tick = 10 * units.Nanosecond

// Script owner prices, in cycles (= ns at 1 GHz).
const (
	basePoll    = 20    // every poll, like a driver's fixed receive cost
	perItem     = 30    // per received input (plus a random 0–30 draw)
	flushCost   = 40    // per held input, flushed on a drain timer
	stallCycles = 25000 // a 25 µs revalidation stall
)

// elisionScript is one scripted scenario.
type elisionScript struct {
	seed      uint64
	producers int        // 1–3 producer actors
	after     uint8      // bit i set: producer i registers after the core
	idleStep  units.Time // the core's IdleStep
	drain     units.Time // held inputs flush once this old (0: next poll)
	revEvery  units.Time // revalidation stall period (0: none)
	cuts      []units.Time
}

// newScript derives a scenario from a seed.
func newScript(seed uint64) *elisionScript {
	r := sim.NewRNG(seed)
	s := &elisionScript{
		seed:      seed,
		producers: 1 + r.Intn(3),
		after:     uint8(r.Intn(8)),
		drain:     tick * units.Time(r.Intn(3000)),
	}
	if r.Bernoulli(0.5) {
		s.idleStep = tick * units.Time(1+r.Intn(40))
	}
	if r.Bernoulli(0.5) {
		s.revEvery = tick * units.Time(1000+r.Intn(20000))
	}
	at := units.Time(0)
	for i := 0; i < 1+r.Intn(12); i++ {
		at += units.Time(1 + r.Intn(int(150*units.Microsecond)))
		if r.Bernoulli(0.3) {
			at -= at % tick // a cut exactly on the grid
		}
		s.cuts = append(s.cuts, at)
	}
	return s
}

// polled is one trace entry: a poll that received input or ran an impure
// empty iteration (a flush or a stall).
type polled struct {
	at  units.Time
	did bool
	got int
}

// scriptOwner is the poll-core owner under test: a queue of inputs with
// visibility times, a drain-timed hold, and a periodic stall.
type scriptOwner struct {
	s       *elisionScript
	queue   []units.Time
	held    int
	first   units.Time
	nextRev units.Time
	trace   []polled
}

func (o *scriptOwner) Poll(now units.Time, m *cost.Meter) bool {
	m.Charge(basePoll)
	impure := false
	if o.s.revEvery > 0 {
		if o.nextRev == 0 {
			o.nextRev = now + o.s.revEvery
		}
		if now >= o.nextRev {
			m.Charge(stallCycles)
			o.nextRev = now + o.s.revEvery
			impure = true
		}
	}
	if o.held > 0 && now-o.first >= o.s.drain {
		m.Charge(flushCost * units.Cycles(o.held))
		o.held = 0
		impure = true
	}
	got := 0
	keep := o.queue[:0]
	for _, v := range o.queue {
		if v <= now {
			got++
		} else {
			keep = append(keep, v)
		}
	}
	o.queue = keep
	if got > 0 {
		// Busy polls draw randomness; empty ones never do.
		m.Charge(units.Cycles(got)*perItem + 10*units.Cycles(m.RNG.Intn(4)))
		if o.held == 0 {
			o.first = now
		}
		o.held += got
	}
	if got > 0 || impure {
		o.trace = append(o.trace, polled{now, got > 0, got})
	}
	return got > 0
}

// NextWork implements Waiter.
func (o *scriptOwner) NextWork(now units.Time) units.Time {
	next := units.Never
	for _, v := range o.queue {
		next = min(next, v)
	}
	if o.held > 0 {
		next = min(next, o.first+o.s.drain)
	}
	if o.s.revEvery > 0 {
		next = min(next, o.nextRev)
	}
	return next
}

// producer posts bursts of inputs with random visibility delays and
// notifies the core, as a device does for its consumer.
type producer struct {
	rng   *sim.RNG
	owner *scriptOwner
	core  *PollCore
	after bool // registered after the core
	// ties counts notifications that fell on a sleeping core's poll
	// boundary at the producer's own instant.
	ties int
}

func (p *producer) Step(now units.Time) (units.Time, bool) {
	c := p.core
	if c.sleeping && now >= c.from && (now-c.from)%c.period == 0 {
		p.ties++
	}
	for n := 1 + p.rng.Intn(3); n > 0; n-- {
		var delay units.Time
		switch p.rng.Intn(3) {
		case 0: // visible at once
		case 1:
			delay = tick * units.Time(p.rng.Intn(20))
		default:
			delay = tick * units.Time(100+p.rng.Intn(3000))
		}
		p.owner.queue = append(p.owner.queue, now+delay)
		c.Notify(now + delay)
	}
	return now + tick*units.Time(1+p.rng.Intn(5000)), true
}

// scriptRun is one simulation of a script.
type scriptRun struct {
	sched *sim.Scheduler
	core  *PollCore
	owner *scriptOwner
	prods []*producer
}

func newScriptRun(s *elisionScript, elide bool) *scriptRun {
	r := &scriptRun{sched: sim.NewScheduler(), owner: &scriptOwner{s: s}}
	root := sim.NewRNG(s.seed)
	addProducer := func(i int) {
		p := &producer{rng: root.Derive(fmt.Sprint("producer", i)), owner: r.owner, after: s.after&(1<<i) != 0}
		r.prods = append(r.prods, p)
		r.sched.WakeAt(r.sched.Register(fmt.Sprint("producer", i), p), tick*units.Time(p.rng.Intn(3000)))
	}
	for i := 0; i < s.producers; i++ {
		if s.after&(1<<i) == 0 {
			addProducer(i)
		}
	}
	model := &cost.Model{Freq: 1_000_000_000, IdlePoll: 10}
	r.core = NewPollCore(r.sched, "core", cost.NewMeter(model, root.Derive("meter")), r.owner.Poll)
	r.core.IdleStep = s.idleStep
	if elide {
		r.core.Waiter = r.owner
	}
	for i := 0; i < s.producers; i++ {
		if s.after&(1<<i) != 0 {
			addProducer(i)
		}
	}
	for _, p := range r.prods {
		p.core = r.core
	}
	r.core.Start(0)
	return r
}

// observed is everything a run exposes at a RunUntil cut.
type observed struct {
	Trace       []polled
	Busy, Idle  units.Cycles
	Total       units.Cycles
	Steps       uint64
	NextPoll    units.Time
	QueuedInput int
}

func (r *scriptRun) observe() observed {
	return observed{
		Trace: append([]polled(nil), r.owner.trace...),
		Busy:  r.core.Busy, Idle: r.core.Idle, Total: r.core.Meter.Total(),
		Steps: r.sched.Steps(), NextPoll: r.core.Task().When(),
		QueuedInput: len(r.owner.queue),
	}
}

// elisionOutcome summarizes a checked script for the rule assertions.
type elisionOutcome struct {
	elided uint64 // polls the eliding core booked instead of dispatching
	ties   [2]int // ties met by producers registered before / after the core
}

func (o *elisionOutcome) add(p elisionOutcome) {
	o.elided += p.elided
	o.ties[0] += p.ties[0]
	o.ties[1] += p.ties[1]
}

// checkElision runs s with and without the Waiter in lockstep and fails t
// on the first cut where any observable differs.
func checkElision(t testing.TB, s *elisionScript) elisionOutcome {
	t.Helper()
	ref, opt := newScriptRun(s, false), newScriptRun(s, true)
	for _, cut := range s.cuts {
		ref.sched.RunUntil(cut)
		opt.sched.RunUntil(cut)
		if opt.core.sleeping {
			t.Fatalf("script %d: core still asleep after RunUntil(%v): the deadline cap failed", s.seed, cut)
		}
		if a, b := ref.observe(), opt.observe(); !reflect.DeepEqual(a, b) {
			for i := range a.Trace {
				if i < len(b.Trace) && a.Trace[i] != b.Trace[i] {
					t.Logf("first trace difference at %d: ref %+v, elide %+v", i, a.Trace[i], b.Trace[i])
					break
				}
			}
			t.Fatalf("script %+v: at cut %v the eliding run diverged\nref:   %s\nelide: %s", *s, cut, brief(a), brief(b))
		}
	}
	out := elisionOutcome{elided: opt.core.Elided()}
	for _, p := range opt.prods {
		if p.after {
			out.ties[1] += p.ties
		} else {
			out.ties[0] += p.ties
		}
	}
	if opt.sched.Elided() != out.elided {
		t.Fatalf("scheduler booked %d steps, core %d", opt.sched.Elided(), out.elided)
	}
	return out
}

func brief(o observed) string {
	last := polled{}
	if len(o.Trace) > 0 {
		last = o.Trace[len(o.Trace)-1]
	}
	return fmt.Sprintf("trace=%d last=%+v busy=%d idle=%d total=%d steps=%d next=%dps queued=%d",
		len(o.Trace), last, o.Busy, o.Idle, o.Total, o.Steps, o.NextPoll, o.QueuedInput)
}

// elisionSeeds are the equivalence test's random scripts and the seed
// corpus of FuzzPollCoreElision.
var elisionSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24}

// TestPollCoreElisionEquivalence checks random scripts, then one script
// per rule the elision depends on, each built so that breaking the rule
// changes an observable.
func TestPollCoreElisionEquivalence(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		var all elisionOutcome
		for _, seed := range elisionSeeds {
			all.add(checkElision(t, newScript(seed)))
		}
		if all.elided == 0 {
			t.Fatal("no script elided a poll: the harness compares nothing")
		}
	})
	// A busy poll zeroes the hint, so the first empty poll after work —
	// here always a flush, since held input drains at the next poll — is
	// never predicted and never sets the booking cost, even when an
	// earlier hint from before the work still lies in the future.
	t.Run("first-empty-after-work", func(t *testing.T) {
		var all elisionOutcome
		for _, seed := range elisionSeeds {
			s := newScript(seed)
			s.drain, s.revEvery = 0, 0
			all.add(checkElision(t, s))
		}
		if all.elided == 0 {
			t.Fatal("nothing elided")
		}
	})
	// Input visible at the producer's own instant wakes a core sleeping on
	// that boundary only if its poll there would not already have run: it
	// depends on which task the scheduler dispatches first at the instant.
	t.Run("same-instant-tie", func(t *testing.T) {
		var all elisionOutcome
		for _, seed := range elisionSeeds {
			for _, after := range []uint8{0, 7} {
				s := newScript(seed)
				s.after, s.idleStep, s.revEvery = after, 0, 0
				all.add(checkElision(t, s))
			}
		}
		if all.ties[0] == 0 || all.ties[1] == 0 {
			t.Fatalf("ties met before/after the core = %v: both dispatch orders must occur", all.ties)
		}
	})
	// Counters read between RunUntil calls must be exact: a sleep never
	// crosses the deadline, so many short cuts, some on the poll grid,
	// must all agree.
	t.Run("deadline-cap", func(t *testing.T) {
		for _, seed := range elisionSeeds[:8] {
			s := newScript(seed)
			s.cuts = s.cuts[:0]
			r := sim.NewRNG(seed)
			for at := units.Time(0); len(s.cuts) < 300; {
				at += tick * units.Time(1+r.Intn(2000))
				if r.Bernoulli(0.5) {
					at += units.Time(r.Intn(int(tick)))
				}
				s.cuts = append(s.cuts, at)
			}
			checkElision(t, s)
		}
	})
}

// FuzzPollCoreElision checks the equivalence on arbitrary script seeds.
func FuzzPollCoreElision(f *testing.F) {
	for _, seed := range elisionSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkElision(t, newScript(seed))
	})
}

// TestPollCoreWithoutWaiterNeverSleeps pins the default: an owner with no
// hint is dispatched for every poll.
func TestPollCoreWithoutWaiterNeverSleeps(t *testing.T) {
	s := sim.NewScheduler()
	core := NewPollCore(s, "c", cost.NewMeter(cost.Default(), nil),
		func(now units.Time, m *cost.Meter) bool { return false })
	core.Start(0)
	s.RunUntil(100 * units.Microsecond)
	if core.Elided() != 0 || s.Elided() != 0 {
		t.Fatalf("elided %d/%d polls without a Waiter", core.Elided(), s.Elided())
	}
}
