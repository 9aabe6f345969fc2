// Package cpu provides simulated CPU cores. A core repeatedly invokes a
// data plane's poll function; the function charges the cycles it consumed to
// a cost.Meter and the core advances simulated time by the drained amount.
//
// Two core flavours mirror the paper's I/O models: PollCore for DPDK-style
// busy-wait switches, and IRQCore for netmap/VALE, which sleeps until a
// device interrupt and pays wakeup costs. A PollCore whose owner gives an
// idle hint (Waiter) still simulates every poll, but sleeps through runs of
// empty ones in one scheduler step and books them on waking.
package cpu

import (
	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/units"
)

// PollFunc is one scheduling quantum of a data plane: process what is
// available, charge cycles to m, report whether any work was done.
type PollFunc func(now units.Time, m *cost.Meter) bool

// Waiter is the optional idle hint of a PollCore's owner.
//
// NextWork is asked after an empty poll at now, with the owner's state as
// that poll left it, and returns the earliest instant at which a poll could
// do anything but an empty poll: a queued input becoming visible, a drain
// timer expiring, a periodic stall falling due. Every poll before that
// instant must find nothing, draw no randomness and cost exactly what the
// empty poll at now cost. Input that other actors add later is outside the
// hint: the device carrying it calls Notify on its consumer core. Other
// actors may only add work — input that makes the poll seeing it busy —
// and a rule edit never changes what an empty poll costs.
type Waiter interface {
	NextWork(now units.Time) units.Time
}

// PollCore is a busy-waiting core (DPDK poll-mode model).
type PollCore struct {
	Meter *cost.Meter
	name  string
	poll  PollFunc
	task  *sim.Task
	sched *sim.Scheduler

	// IdleStep, when set, is the minimum clock advance after a poll that
	// found no work — a cheap way to coarsen idle spinning for cores
	// whose latency contribution is bounded (guest monitors).
	IdleStep units.Time

	// Waiter, when set, lets the core sleep through runs of empty polls
	// instead of being dispatched for each (see sleep); nil keeps one
	// scheduler step per poll.
	Waiter Waiter

	// Busy counts cycles spent in iterations that did work; Idle counts
	// empty polls — together they give the paper's CPU utilization view.
	Busy, Idle units.Cycles

	// Idle-poll elision state. hint is the Waiter's last answer, zeroed by
	// a busy poll. While sleeping, the core's polls
	// at from, from+period, ... up to its wake-up are empty polls of
	// emptyCost cycles each, booked by book when it wakes.
	hint         units.Time
	sleeping     bool
	from, period units.Time
	emptyCost    units.Cycles
	elided       uint64
}

// NewPollCore registers a busy-poll core with the scheduler. It does not
// start running until Start is called.
func NewPollCore(s *sim.Scheduler, name string, m *cost.Meter, poll PollFunc) *PollCore {
	c := &PollCore{Meter: m, name: name, poll: poll, sched: s}
	c.task = s.Register(name, c)
	return c
}

// Name returns the core's scheduler name ("sut", "sut-core2", "sut-tx",
// ...); multi-core results report per-core utilization under it.
func (c *PollCore) Name() string { return c.name }

// Start schedules the first poll at time at.
func (c *PollCore) Start(at units.Time) { c.sched.WakeAt(c.task, at) }

// Task exposes the scheduler handle (tests/diagnostics).
func (c *PollCore) Task() *sim.Task { return c.task }

// Elided returns how many of the core's polls were booked while it slept
// instead of being dispatched (diagnostics).
func (c *PollCore) Elided() uint64 { return c.elided }

// Step implements sim.Actor.
func (c *PollCore) Step(now units.Time) (units.Time, bool) {
	if c.sleeping {
		c.book(now)
	}
	did := c.poll(now, c.Meter)
	if !did {
		c.Meter.Charge(c.Meter.Model.IdlePoll)
	}
	spent := c.Meter.Pending()
	d := c.Meter.Drain()
	if did {
		c.Busy += spent
		c.hint = 0
	} else {
		c.Idle += spent
		if d < c.IdleStep {
			d = c.IdleStep
		}
	}
	if d <= 0 {
		// A poll must consume time or the simulation cannot advance.
		d = units.Nanosecond
	}
	if !did && c.Waiter != nil {
		return c.sleep(now, d, spent), true
	}
	return now + d, true
}

// sleep returns the next step time after an empty poll at now that took d
// and cost spent cycles. An empty poll is a pure function of time — it
// draws no randomness — so when the previous hint had already predicted
// this poll empty, its cost is the owner's plain empty-poll cost, and every
// poll before the new hint repeats it. The core then skips to the first
// poll boundary (now + k·d) at or after the hint, capped at the last
// boundary inside the RunUntil deadline so that every counter is exact
// whenever the scheduler stops, and books the skipped polls on waking.
// The first empty poll after work is never predicted (a busy poll zeroes
// the hint), so an impure one — a drain flush, a stall — never sets the
// booking cost.
func (c *PollCore) sleep(now, d units.Time, spent units.Cycles) units.Time {
	predicted := c.hint > now
	c.hint = c.Waiter.NextWork(now)
	next := now + d
	if !predicted || c.hint <= next {
		return next
	}
	k := (c.hint-now-1)/d + 1
	if limit := (c.sched.Deadline() - now) / d; k > limit {
		k = limit
	}
	if k <= 1 {
		return next
	}
	c.sleeping = true
	c.from, c.period, c.emptyCost = next, d, spent
	return now + k*d
}

// book accounts the polls skipped while sleeping — one every period from
// from up to, not including, the wake-up at now — exactly as dispatching
// them would have: idle cycles, meter total and scheduler steps.
func (c *PollCore) book(now units.Time) {
	c.sleeping = false
	k := (now - c.from) / c.period
	booked := units.Cycles(k) * c.emptyCost
	c.Idle += booked
	c.Meter.Book(booked)
	c.sched.CountSteps(uint64(k))
	c.elided += uint64(k)
}

// Notify tells the core that input for it becomes visible at time at
// (taken as now if earlier). An awake core ignores it: its next poll, or
// the hint after it, sees the input. A sleeping core is woken at the first
// poll boundary at or after at — one period later if that boundary is the
// producer's own instant and the core's poll there would already have run,
// since that poll ran before the input existed.
func (c *PollCore) Notify(at units.Time) {
	if c.sleeping {
		c.wake(at)
	}
}

// NotifyNow is Notify for input visible the moment it is produced.
func (c *PollCore) NotifyNow() {
	if c.sleeping {
		c.wake(0)
	}
}

func (c *PollCore) wake(at units.Time) {
	now := c.sched.Now()
	if at < now {
		at = now
	}
	b := c.from
	if at > b {
		b += ((at-b-1)/c.period + 1) * c.period
	}
	if b == now && c.sched.Passed(c.task) {
		b += c.period
	}
	c.sched.WakeAt(c.task, b)
}

// IRQCore is an interrupt-driven core (netmap model): it processes available
// work, then sleeps until a device calls Wake. Each wakeup pays the
// interrupt + syscall path cost.
type IRQCore struct {
	Meter *cost.Meter
	poll  PollFunc
	task  *sim.Task
	sched *sim.Scheduler

	sleeping  bool
	busyUntil units.Time
	// pending is the earliest interrupt signalled while the core was
	// running (0 = none): delivered when the core would otherwise sleep.
	pending units.Time
	Wakeups int64

	// onSleep callbacks re-enable device interrupts when the core exits
	// its polling loop (the NAPI contract): each device re-fires if it
	// still has — or will have — work.
	onSleep []func(now units.Time)
}

// NewIRQCore registers an interrupt-driven core with the scheduler.
func NewIRQCore(s *sim.Scheduler, name string, m *cost.Meter, poll PollFunc) *IRQCore {
	c := &IRQCore{Meter: m, poll: poll, sched: s, sleeping: true}
	c.task = s.Register(name, c)
	return c
}

// Wake signals the core (an interrupt) at time at. Redundant wakes while the
// core is already running are harmless; a wake can never pull the core's
// next step before the end of the work it is already committed to.
func (c *IRQCore) Wake(at units.Time) {
	if c.sleeping {
		c.sleeping = false
		c.Wakeups++
		// First wake out of sleep pays the interrupt delivery and the
		// syscall return path before any packet work happens.
		c.Meter.Charge(c.Meter.Model.Interrupt + c.Meter.Model.Syscall)
		if at < c.busyUntil {
			at = c.busyUntil
		}
		c.sched.WakeAt(c.task, at)
		return
	}
	// The core is running (or queued to run): the hardware interrupt
	// still fires at `at` and must not be swallowed by an earlier queued
	// step — remember it for delivery when the core goes idle.
	if c.pending == 0 || at < c.pending {
		c.pending = at
	}
}

// Task exposes the scheduler handle (tests/diagnostics).
func (c *IRQCore) Task() *sim.Task { return c.task }

// Step implements sim.Actor.
func (c *IRQCore) Step(now units.Time) (units.Time, bool) {
	did := c.poll(now, c.Meter)
	d := c.Meter.Drain()
	if d <= 0 {
		d = units.Nanosecond
	}
	c.busyUntil = now + d
	if c.pending != 0 && c.pending <= now {
		c.pending = 0 // delivered: this poll saw the signalled work
	}
	if did {
		return c.busyUntil, true
	}
	if c.pending != 0 {
		// An undelivered interrupt is outstanding: stay armed for it
		// (NAPI-style, no fresh interrupt cost).
		at := c.pending
		c.pending = 0
		if at < c.busyUntil {
			at = c.busyUntil
		}
		return at, true
	}
	// Sleep, then re-enable device interrupts: a device with work (now
	// or in flight) immediately schedules the next wake.
	c.sleeping = true
	for _, f := range c.onSleep {
		f(now)
	}
	return 0, false
}

// AddSleeper registers a device re-arm callback (see onSleep).
func (c *IRQCore) AddSleeper(f func(now units.Time)) { c.onSleep = append(c.onSleep, f) }
