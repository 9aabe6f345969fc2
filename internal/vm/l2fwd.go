package vm

import (
	"repro/internal/cost"
	"repro/internal/pkt"
	"repro/internal/units"
)

// DPDK l2fwd constants (the sample application's MAX_PKT_BURST and
// BURST_TX_DRAIN_US defaults).
const (
	L2FwdBurst = 32
	l2fwdDrain = 100 * units.Microsecond
)

// Guest-side per-packet application cost.
const l2fwdPerPkt = 34

// L2Fwd is the DPDK l2fwd sample application: it cross-connects two guest
// interfaces, rewriting source and (optionally) destination MACs, and
// transmits in strict batches with a drain timeout.
type L2Fwd struct {
	A, B NetIf
	// OwnMAC is written as the Ethernet source of forwarded frames.
	OwnMAC pkt.MAC
	// RewriteAB/RewriteBA, when non-nil, overwrite the destination MAC
	// of frames forwarded A→B / B→A — how chain VNFs steer the next hop
	// for MAC-forwarding SUTs (the paper's t4p4s loopback note).
	RewriteAB, RewriteBA *pkt.MAC

	batchAB, batchBA []*pkt.Buf
	firstAB, firstBA units.Time

	// derivedAB/derivedBA memoize this VNF's MAC rewrite per input
	// template and direction: the rewrite is deterministic, so a
	// template-backed frame swaps its template pointer instead of
	// materializing 60+ bytes per frame. The cache stays tiny — one
	// entry per distinct upstream template (generator flow or upstream
	// VNF).
	derivedAB, derivedBA map[*pkt.Template]*pkt.Template

	// scratch is the receive staging array, hoisted off the poll path:
	// a stack array handed through the NetIf interface escapes, which
	// costs one heap allocation per pump on a core that polls every few
	// hundred simulated nanoseconds.
	scratch [L2FwdBurst]*pkt.Buf

	// Forwarded and Dropped count frames through the VNF.
	Forwarded, Dropped int64
}

// Poll runs one guest-core iteration; it implements cpu.PollFunc.
func (f *L2Fwd) Poll(now units.Time, m *cost.Meter) bool {
	if f.derivedAB == nil {
		f.derivedAB = make(map[*pkt.Template]*pkt.Template)
		f.derivedBA = make(map[*pkt.Template]*pkt.Template)
	}
	did := f.pump(now, m, f.A, f.B, f.RewriteAB, f.derivedAB, &f.batchAB, &f.firstAB)
	did = f.pump(now, m, f.B, f.A, f.RewriteBA, f.derivedBA, &f.batchBA, &f.firstBA) || did
	return did
}

// rewriteMACs applies this VNF's header edit to one frame. Template-backed
// frames, probes among them (their stamp survives SetTemplate), swap to a
// memoized derived template (same bytes, no materialize); anything else —
// frames a switch already materialized — takes the byte path.
func (f *L2Fwd) rewriteMACs(b *pkt.Buf, rewrite *pkt.MAC, derived map[*pkt.Template]*pkt.Template) {
	if t := b.Template(); t != nil && b.Len() == t.Len() {
		d, ok := derived[t]
		if !ok {
			d = t.Derive(func(data []byte) {
				pkt.SetEthSrc(data, f.OwnMAC)
				if rewrite != nil {
					pkt.SetEthDst(data, *rewrite)
				}
			})
			derived[t] = d
		}
		b.SetTemplate(d)
		return
	}
	data := b.Bytes()
	pkt.SetEthSrc(data, f.OwnMAC)
	if rewrite != nil {
		pkt.SetEthDst(data, *rewrite)
	}
}

func (f *L2Fwd) pump(now units.Time, m *cost.Meter, from, to NetIf, rewrite *pkt.MAC, derived map[*pkt.Template]*pkt.Template, batch *[]*pkt.Buf, first *units.Time) bool {
	burst := &f.scratch
	n := from.Recv(now, m, burst[:])
	if n > 0 {
		m.Charge(units.Cycles(n) * l2fwdPerPkt)
		for _, b := range burst[:n] {
			f.rewriteMACs(b, rewrite, derived)
		}
		if len(*batch) == 0 {
			*first = now
		}
		*batch = append(*batch, burst[:n]...)
	}
	// Strict batching: flush on a full burst or when the oldest buffered
	// frame has waited out the drain timer.
	if len(*batch) >= L2FwdBurst || (len(*batch) > 0 && now-*first >= l2fwdDrain) {
		f.flush(now, m, to, batch)
	}
	return n > 0
}

// NextWork implements cpu.Waiter: an empty iteration charges nothing of
// its own until an interface has a frame or a held batch's drain timer
// expires (that flush is did=false work, so it must not be slept over).
func (f *L2Fwd) NextWork(now units.Time) units.Time {
	next := min(f.A.NextRx(now), f.B.NextRx(now))
	if len(f.batchAB) > 0 {
		next = min(next, f.firstAB+l2fwdDrain)
	}
	if len(f.batchBA) > 0 {
		next = min(next, f.firstBA+l2fwdDrain)
	}
	return next
}

func (f *L2Fwd) flush(now units.Time, m *cost.Meter, to NetIf, batch *[]*pkt.Buf) {
	sent := to.SendBurst(now, m, *batch)
	f.Forwarded += int64(sent)
	f.Dropped += int64(len(*batch) - sent)
	*batch = (*batch)[:0]
}

// ValeFwd is the loopback VNF used with the VALE SUT: a guest VALE
// instance cross-connecting two ptnet ports. Forwarding costs one
// inter-port copy on the guest core; there is no strict batching (VALE's
// adaptive batches forward whatever is pending).
type ValeFwd struct {
	A, B NetIf
	Pool *pkt.Pool // guest memory for the inter-port copies

	scratch [64]*pkt.Buf // receive staging, reused across polls
	// out stages one copy for SendBurst: each copy is sent as it is made,
	// so per-frame order holds, and a field does not escape per send.
	out [1]*pkt.Buf

	Forwarded, Dropped int64
}

// Per-frame guest VALE costs.
const (
	valeFwdPerPkt        = 40
	valeFwdCopyPerByteMi = 300
)

// Poll runs one guest-core iteration; it implements cpu.PollFunc.
func (f *ValeFwd) Poll(now units.Time, m *cost.Meter) bool {
	did := f.pump(now, m, f.A, f.B)
	did = f.pump(now, m, f.B, f.A) || did
	return did
}

// NextWork implements cpu.Waiter: nothing changes until an interface has
// a frame.
func (f *ValeFwd) NextWork(now units.Time) units.Time {
	return min(f.A.NextRx(now), f.B.NextRx(now))
}

func (f *ValeFwd) pump(now units.Time, m *cost.Meter, from, to NetIf) bool {
	burst := &f.scratch
	n := from.Recv(now, m, burst[:])
	for _, b := range burst[:n] {
		m.Charge(valeFwdPerPkt + valeFwdCopyPerByteMi*units.Cycles(b.Len())/1000)
		f.out[0] = f.Pool.Clone(b)
		b.Free()
		if to.SendBurst(now, m, f.out[:]) == 1 {
			f.Forwarded++
		} else {
			f.Dropped++
		}
	}
	return n > 0
}
