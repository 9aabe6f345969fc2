// Package sim provides a deterministic discrete-event scheduler.
//
// The whole testbed runs on a single goroutine: every active component
// (CPU cores, traffic generators, NIC pacers) is an Actor stepped in global
// timestamp order. Ties are broken by registration order, making every run
// bit-for-bit reproducible for a given seed.
//
// The dispatch loop is the hottest code in the repository — every simulated
// cell pushes millions of events through it — so the priority queue is an
// inlined, monomorphic 4-ary min-heap on (when, seq) rather than
// container/heap: no interface dispatch, no per-Push boxing, and a
// shallower tree than a binary heap (packet schedules are dominated by
// sift-downs after Pop). Because (when, seq) is a total order (seq is
// unique), the dispatch sequence is a pure function of the schedule: any
// correct heap — and the run-next fast path below — yields bit-identical
// simulations.
package sim

import (
	"fmt"

	"repro/internal/units"
)

// Actor is a simulated active component.
//
// Step runs the actor at time now and returns the time of its next step.
// Returning ok=false parks the actor: it will not run again until something
// calls Scheduler.WakeAt on its Task (used by interrupt-driven components).
type Actor interface {
	Step(now units.Time) (next units.Time, ok bool)
}

// Task is a scheduler handle for one registered actor.
type Task struct {
	actor Actor
	name  string
	seq   int // registration order; breaks timestamp ties deterministically

	when      units.Time
	index     int // heap index, -1 when not queued
	scheduled bool
}

// Name returns the name the task was registered under.
func (t *Task) Name() string { return t.name }

// Scheduled reports whether the task is currently queued to run.
func (t *Task) Scheduled() bool { return t.scheduled }

// When returns the task's queued run time (meaningless if !Scheduled).
func (t *Task) When() units.Time { return t.when }

// before is the dispatch total order: earlier time first, registration
// order on ties.
func (t *Task) before(u *Task) bool {
	if t.when != u.when {
		return t.when < u.when
	}
	return t.seq < u.seq
}

// Scheduler orders and dispatches actor steps.
type Scheduler struct {
	now      units.Time
	queue    taskHeap
	tasks    []*Task
	steps    uint64
	deadline units.Time // active RunUntil bound (see Deadline)
	// turn is the highest registration order dispatched at the current
	// instant (-1 before any), the state behind Passed.
	turn int

	// fastHits counts dispatches served by the run-next fast path and
	// elided the steps booked through CountSteps (diagnostics for
	// benchmarks; not part of simulation state).
	fastHits, elided uint64

	// settlers run as every RunUntil returns (see OnSettle).
	settlers []func(deadline units.Time)
}

// NewScheduler returns an empty scheduler at time zero.
func NewScheduler() *Scheduler { return &Scheduler{turn: -1} }

// Now returns the current simulated time.
func (s *Scheduler) Now() units.Time { return s.now }

// Steps returns the logical step count: every actor step dispatched so far
// plus the steps actors booked through CountSteps without being dispatched.
func (s *Scheduler) Steps() uint64 { return s.steps }

// CountSteps books k steps an actor simulated arithmetically instead of
// being dispatched for each (a poll core sleeping through empty polls), so
// Steps stays what dispatching every one of them would have counted.
func (s *Scheduler) CountSteps(k uint64) {
	s.steps += k
	s.elided += k
}

// Elided returns how many of Steps were booked through CountSteps rather
// than dispatched (engine diagnostics, like FastPathHits).
func (s *Scheduler) Elided() uint64 { return s.elided }

// Passed reports whether t's turn at the current instant has come and
// gone: a step of t queued for Now() before the instant began would already
// have been dispatched. Within one instant the heap dispatches the tasks
// queued ahead of it in registration order, so that holds exactly when
// some task of higher order has run at this instant (or t itself has). A
// producer that runs at the instant it makes input visible uses this to
// tell whether a sleeping consumer's poll at that instant saw the input.
func (s *Scheduler) Passed(t *Task) bool { return t.seq <= s.turn }

// FastPathHits returns how many steps skipped the heap via the run-next
// fast path (engine diagnostics). Like Steps it is a pure function of the
// schedule and the RunUntil bounds, so it repeats exactly run to run.
func (s *Scheduler) FastPathHits() uint64 { return s.fastHits }

// Deadline returns the bound of the RunUntil call currently executing
// (zero outside RunUntil). Actors that emit time-stamped work ahead of the
// clock — the batched traffic generators — must not stamp anything past
// this bound: events beyond it would not have been dispatched, so state
// observed between RunUntil calls must not include them.
func (s *Scheduler) Deadline() units.Time { return s.deadline }

// OnSettle registers fn to run as every RunUntil returns, after its last
// step, with its deadline. An actor that accounts for its steps
// arithmetically instead of being dispatched for them (the counting sink's
// polls) settles them there up to the deadline and books them through
// CountSteps, so everything read between RunUntil calls is what
// dispatching them would have left.
func (s *Scheduler) OnSettle(fn func(deadline units.Time)) {
	s.settlers = append(s.settlers, fn)
}

// Register adds an actor (initially parked) and returns its task handle.
func (s *Scheduler) Register(name string, a Actor) *Task {
	t := &Task{actor: a, name: name, seq: len(s.tasks), index: -1}
	s.tasks = append(s.tasks, t)
	return t
}

// WakeAt schedules (or reschedules) the task to run at time at. If the task
// is already queued, the earlier of the two times wins. Scheduling in the
// past is clamped to the present.
func (s *Scheduler) WakeAt(t *Task, at units.Time) {
	if at < s.now {
		at = s.now
	}
	if t.scheduled {
		if at < t.when {
			t.when = at
			s.queue.siftUp(t.index)
		}
		return
	}
	t.when = at
	t.scheduled = true
	s.queue.push(t)
}

// RunUntil dispatches steps in timestamp order until the queue is empty or
// the next step would occur after deadline. The clock is left at the last
// dispatched step (or at deadline if nothing ran at/after it).
func (s *Scheduler) RunUntil(deadline units.Time) {
	s.deadline = deadline
	for len(s.queue) > 0 {
		next := s.queue[0]
		if next.when > deadline {
			break
		}
		s.queue.popMin()
		next.scheduled = false
		for {
			if next.when > s.now {
				s.now = next.when
				s.turn = next.seq
			} else if next.seq > s.turn {
				s.turn = next.seq
			}
			s.steps++
			when, ok := next.actor.Step(s.now)
			if !ok {
				break
			}
			if when < s.now {
				panic(fmt.Sprintf("sim: actor %q scheduled into the past (%v < %v)", next.name, when, s.now))
			}
			// Run-next fast path: if the stepped actor rescheduled itself
			// ahead of everything queued (the dominant "self-reschedule at
			// now+Δ" pattern of pollers and pacers), dispatch it
			// again directly — no push, no pop, no sift. The guard is the
			// exact dispatch order: the task must precede the heap minimum
			// under (when, seq), be within the deadline, and not have been
			// re-queued by its own side effects mid-step.
			if !next.scheduled && when <= deadline {
				if len(s.queue) == 0 || (when < s.queue[0].when || (when == s.queue[0].when && next.seq < s.queue[0].seq)) {
					next.when = when
					s.fastHits++
					continue
				}
			}
			s.WakeAt(next, when)
			break
		}
	}
	for _, fn := range s.settlers {
		fn(deadline)
	}
	s.deadline = 0
	if s.now < deadline {
		s.now = deadline
		s.turn = -1
	}
}

// Idle reports whether no task is queued.
func (s *Scheduler) Idle() bool { return len(s.queue) == 0 }

// taskHeap is an inlined 4-ary min-heap on (when, seq). Four children per
// node halve the tree depth of the binary heap: pops — the common
// operation under heavy same-timestamp load — trade deeper sift-downs for
// more comparisons per level, which is a win once the comparisons are
// monomorphic and branch-predictable.
type taskHeap []*Task

// push appends t and restores the heap property.
func (h *taskHeap) push(t *Task) {
	t.index = len(*h)
	*h = append(*h, t)
	h.siftUp(t.index)
}

// popMin removes the minimum element ((*h)[0]). The caller has already
// read it.
func (h *taskHeap) popMin() {
	old := *h
	n := len(old) - 1
	min := old[0]
	last := old[n]
	old[n] = nil
	*h = old[:n]
	min.index = -1
	if n > 0 {
		old[0] = last
		last.index = 0
		h.siftDown(0)
	}
}

// siftUp restores the heap property from index i toward the root.
func (h taskHeap) siftUp(i int) {
	t := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		if !t.before(p) {
			break
		}
		h[i] = p
		p.index = i
		i = parent
	}
	h[i] = t
	t.index = i
}

// siftDown restores the heap property from index i toward the leaves.
func (h taskHeap) siftDown(i int) {
	n := len(h)
	t := h[i]
	for {
		first := i<<2 + 1 // leftmost child
		if first >= n {
			break
		}
		// Find the smallest of up to four children.
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(h[min]) {
				min = c
			}
		}
		if !h[min].before(t) {
			break
		}
		h[i] = h[min]
		h[i].index = i
		i = min
	}
	h[i] = t
	t.index = i
}

// StepFunc adapts a function to the Actor interface.
type StepFunc func(now units.Time) (units.Time, bool)

// Step implements Actor.
func (f StepFunc) Step(now units.Time) (units.Time, bool) { return f(now) }
