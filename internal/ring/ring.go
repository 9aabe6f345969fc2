// Package ring provides the bounded single-producer/single-consumer packet
// queues that back virtio vrings, netmap rings, and inter-module links.
package ring

import (
	"repro/internal/pkt"
	"repro/internal/units"
)

// SPSC is a bounded FIFO of packet buffers. The zero value is unusable; use
// New. (The simulation is single-goroutine, so no atomics are needed — the
// "SPSC" in the name records the modelled hardware discipline.)
//
// The backing store is sized to the next power of two so that slot indexing
// is a mask instead of a modulo; head and tail are free-running so Len is a
// subtraction. The logical capacity is whatever New was given, which keeps
// ring-full (and therefore drop) behaviour independent of the rounding.
type SPSC struct {
	buf  []*pkt.Buf // power-of-two backing store
	mask uint64
	cap  int    // logical capacity (≤ len(buf))
	head uint64 // next pop slot, free-running
	tail uint64 // next push slot, free-running

	// Drops counts rejected pushes (ring full).
	Drops int64
	// Pushed and Popped count successful operations.
	Pushed, Popped int64
}

// New returns a ring holding up to capacity buffers.
func New(capacity int) *SPSC {
	if capacity <= 0 {
		panic("ring: non-positive capacity")
	}
	pow2 := 1
	for pow2 < capacity {
		pow2 <<= 1
	}
	return &SPSC{buf: make([]*pkt.Buf, pow2), mask: uint64(pow2 - 1), cap: capacity}
}

// Cap returns the ring capacity.
func (r *SPSC) Cap() int { return r.cap }

// Len returns the number of queued buffers.
func (r *SPSC) Len() int { return int(r.tail - r.head) }

// Free returns the remaining slots.
func (r *SPSC) Free() int { return r.cap - int(r.tail-r.head) }

// Push enqueues b, returning false (and counting a drop) if full.
func (r *SPSC) Push(b *pkt.Buf) bool {
	if int(r.tail-r.head) == r.cap {
		r.Drops++
		return false
	}
	r.buf[r.tail&r.mask] = b
	r.tail++
	r.Pushed++
	return true
}

// PushFrames enqueues the frames of b, a run or a single frame
// (pkt.Buf.Run), one per slot, and returns how many fit: each frame but
// the last is cut off the run as a buffer of its own, and the frames the
// full ring refuses are counted as drops and freed with b, never becoming
// buffers.
func (r *SPSC) PushFrames(b *pkt.Buf) int {
	k := b.Run()
	n := min(k, r.Free())
	for i := min(n, k-1); i > 0; i-- {
		r.Push(b.Cut(1))
	}
	if n == k {
		r.Push(b)
	} else {
		r.Drops += int64(k - n)
		b.Free()
	}
	return n
}

// PushBurst enqueues buffers from in until the ring fills, returning how
// many were accepted. Unlike Push it does not count drops for the
// remainder — the caller decides what a rejected batch tail means.
func (r *SPSC) PushBurst(in []*pkt.Buf) int {
	n := r.cap - int(r.tail-r.head)
	if n > len(in) {
		n = len(in)
	}
	for _, b := range in[:n] {
		r.buf[r.tail&r.mask] = b
		r.tail++
	}
	r.Pushed += int64(n)
	return n
}

// Pop dequeues the oldest buffer, or nil if empty.
func (r *SPSC) Pop() *pkt.Buf {
	if r.tail == r.head {
		return nil
	}
	b := r.buf[r.head&r.mask]
	r.buf[r.head&r.mask] = nil
	r.head++
	r.Popped++
	return b
}

// Peek returns the oldest buffer without removing it, or nil.
func (r *SPSC) Peek() *pkt.Buf {
	if r.tail == r.head {
		return nil
	}
	return r.buf[r.head&r.mask]
}

// DrainTo pops up to len(out) buffers into out and returns the count.
func (r *SPSC) DrainTo(out []*pkt.Buf) int {
	n := int(r.tail - r.head)
	if n > len(out) {
		n = len(out)
	}
	for i := 0; i < n; i++ {
		out[i] = r.buf[r.head&r.mask]
		r.buf[r.head&r.mask] = nil
		r.head++
	}
	r.Popped += int64(n)
	return n
}

// DrainVisibleTo pops up to len(out) buffers whose AvailAt has passed (the
// virtio used-ring visibility gate: a notify-delayed frame blocks everything
// behind it, preserving FIFO order) and returns the count.
func (r *SPSC) DrainVisibleTo(now units.Time, out []*pkt.Buf) int {
	n := 0
	for n < len(out) && r.tail != r.head {
		b := r.buf[r.head&r.mask]
		if b.AvailAt > now {
			break
		}
		r.buf[r.head&r.mask] = nil
		r.head++
		out[n] = b
		n++
	}
	r.Popped += int64(n)
	return n
}
