// Cross-partition wire handoff for the conservative parallel engine.
//
// A cut wire replaces in-process delivery (tx.SendAt → peer.arrive) with a
// single-producer/single-consumer ring of (wire-completion time, frame)
// pairs: the sending partition pushes as it transmits, and the receiving
// partition drains the ring at the top of each of its dispatch windows,
// replaying arrive() with the original timestamps.
//
// Why this is invisible to the simulation: arrive() only appends to the
// port's RX queue — a frame completing the wire at `done` becomes
// consumer-visible at done + RxLatency, and queueing it earlier or later (as
// long as it is before visibility) changes nothing. Conservative
// synchronization guarantees exactly that: the receiver's window edge never
// exceeds senderClock + TxLatency + RxLatency, while a frame pushed when the
// sender's clock read c completes the wire strictly after c + TxLatency
// (serialization time > 0), so every drained frame is still in its
// pre-visibility flight when it lands in the queue. FIFO order per wire
// preserves the queue's sort (wire completions are monotonic per sender —
// the busyUntil ratchet).
package nic

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/pkt"
	"repro/internal/units"
)

// wireEntry is one in-flight frame: its wire-completion (PHY arrival) time
// and the buffer, ownership of which passes to the receiving partition.
type wireEntry struct {
	done units.Time
	buf  *pkt.Buf
}

// defaultHandoffCap bounds in-flight frames per cut direction. Conservative
// sync bounds clock skew by the lookahead, so real occupancy is ~2L of line
// rate (a few hundred frames); the cap is generous headroom, not a throttle.
const defaultHandoffCap = 4096

// Handoff is the SPSC ring carrying one direction of a cut wire. The
// sending partition calls push (via SendAt), the receiving partition calls
// Drain. Both sides work on goroutine-local indices and publish through a
// single atomic store, reloading the other side's published index only
// when they must (ring apparently full / apparently empty) — pushes run at
// line rate, so per-frame seq-cst traffic is what this layout avoids.
type Handoff struct {
	rx    *Port
	slots []wireEntry
	mask  uint64

	// Sender-local state.
	tailLocal uint64 // next slot to fill
	headCache uint64 // last observed published head

	// Receiver-local state.
	headLocal uint64 // next slot to drain

	head atomic.Uint64 // published by the receiver after draining
	tail atomic.Uint64 // published by the sender after filling
}

// CutWire diverts tx's transmissions into a new handoff queue instead of
// delivering directly to its peer, which the receiving partition must drain
// every window. capacity <= 0 selects the default; it is rounded up to a
// power of two. Cutting an interrupt-bound receiver is forbidden: arrive()
// would have to schedule an IRQ on the sender's goroutine at push time,
// which both races and (with ITR moderation charged at send) diverges from
// sequential dispatch — interrupt-mode topologies run single-partition.
func CutWire(tx *Port, capacity int) *Handoff {
	if tx.peer == nil {
		panic(fmt.Sprintf("nic: cannot cut unconnected port %s", tx.cfg.Name))
	}
	if tx.peer.irq != nil {
		panic(fmt.Sprintf("nic: cannot cut wire into IRQ-bound port %s", tx.peer.cfg.Name))
	}
	if capacity <= 0 {
		capacity = defaultHandoffCap
	}
	c := 1
	for c < capacity {
		c <<= 1
	}
	h := &Handoff{rx: tx.peer, slots: make([]wireEntry, c), mask: uint64(c - 1)}
	tx.out = h
	return h
}

// WireLookahead returns the minimum delay between tx's partition clock and
// any effect on the receiving side becoming consumer-visible: a frame sent
// at clock c completes the wire after c + TxLatency (plus serialization
// time, the strict-inequality margin that makes inclusive window edges
// safe) and becomes visible at completion + RxLatency.
func WireLookahead(tx *Port) units.Time {
	if tx.peer == nil {
		return 0
	}
	return tx.cfg.TxLatency + tx.peer.cfg.RxLatency
}

// push appends one in-flight frame; sender side only. The ring looks full
// against the cached head first; only then is the published head reloaded,
// and only a truly full ring yields until the receiver drains — with
// conservative sync that means the receiver is merely behind on wall
// clock, never blocked on us. One atomic store per frame.
func (h *Handoff) push(done units.Time, b *pkt.Buf) {
	t := h.tailLocal
	if t-h.headCache >= uint64(len(h.slots)) {
		for {
			h.headCache = h.head.Load()
			if t-h.headCache < uint64(len(h.slots)) {
				break
			}
			runtime.Gosched()
		}
	}
	h.slots[t&h.mask] = wireEntry{done: done, buf: b}
	h.tailLocal = t + 1
	h.tail.Store(t + 1)
}

// Drain replays every queued frame into the receiving port, in emission
// order; receiver side only. One tail load per call, and the head is
// published once after the whole batch — a sender spinning on a full ring
// waits at most one window, which conservative sync already tolerates.
// Every frame the sender pushed before publishing the clock that shaped
// this window's bound is covered: its tail store precedes that clock store.
func (h *Handoff) Drain() {
	tl := h.tail.Load()
	hd := h.headLocal
	if hd == tl {
		return
	}
	for i := hd; i < tl; i++ {
		e := &h.slots[i&h.mask]
		h.rx.arrive(e.done, e.buf)
		e.buf = nil
	}
	h.headLocal = tl
	h.head.Store(tl)
}
