package ovs

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/pkt"
	"repro/internal/switches/switchdef"
	"repro/internal/switches/switchtest"
	"repro/internal/units"
)

// memoSpec is the frame every memo-bound test sends, one template per flow.
var memoSpec = pkt.FrameSpec{
	SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
	SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
	SrcPort: 1000, DstPort: 2000, FrameLen: 64,
}

// memoRig is an OvS instance with three fake ports: port 0 is cross-wired
// to port 1, and port 2 has no rule, so its frames miss every tier.
type memoRig struct {
	env  switchdef.Env
	sw   *Switch
	fps  []*switchtest.FakePort
	m    *cost.Meter
	now  units.Time
	seq  uint64
	fate []uint64 // Seq of every delivered frame, in delivery order
}

func newMemoRig(t *testing.T) *memoRig {
	t.Helper()
	r := &memoRig{env: switchtest.Env()}
	r.sw = New(r.env)
	r.fps = switchtest.AddPorts(r.sw, 3)
	install(t, r.sw, rule(0, inPort(0), output(1)))
	r.m = switchtest.Meter(r.env)
	return r
}

// send polls one burst of frames, frame i on template tmpls[i] into port,
// and records what left on port 1.
func (r *memoRig) send(port int, tmpls []*pkt.Template) {
	for _, tm := range tmpls {
		b := r.env.Pool.Get(tm.Len())
		b.SetTemplate(tm)
		r.seq++
		b.Seq = r.seq
		r.fps[port].In = append(r.fps[port].In, b)
	}
	r.sw.Poll(r.now, r.m)
	r.now += r.m.Drain() + units.Nanosecond
	for _, b := range r.fps[1].Out {
		r.fate = append(r.fate, b.Seq)
		b.Free()
	}
	r.fps[1].Out = r.fps[1].Out[:0]
}

// sendAll sends tmpls in bursts of Burst frames.
func (r *memoRig) sendAll(port int, tmpls []*pkt.Template) {
	for len(tmpls) > 0 {
		n := min(Burst, len(tmpls))
		r.send(port, tmpls[:n])
		tmpls = tmpls[n:]
	}
}

// replays reports whether the next frame of tm on port takes Poll's replay
// branch.
func (r *memoRig) replays(tm *pkt.Template, port int) bool {
	k := memoKey{tmpl: tm.ID(), port: int32(port)}
	e, ok := r.sw.memo.Get(memoHash(k), k)
	return ok && e.gen == r.sw.cacheGen
}

func memoTemplates(n int) []*pkt.Template {
	tmpls := make([]*pkt.Template, n)
	for i := range tmpls {
		tmpls[i] = memoSpec.Template(i)
	}
	return tmpls
}

// TestMemoBoundMatchesReference drives more distinct templates than
// memoCap through OvS, memo on and off, with a rule edit once the memo is
// full: the memo must stay within its bound and change nothing the
// reference path decides, and a template recorded before the bound was
// reached must be refreshed after the edit and replay again.
func TestMemoBoundMatchesReference(t *testing.T) {
	const early = 48
	tmpls := memoTemplates(memoCap + 3*early)
	run := func(noMemo bool) (*memoRig, string) {
		defer SetMemoDisabled(SetMemoDisabled(noMemo))
		r := newMemoRig(t)
		for pass := 0; pass < 2; pass++ {
			r.sendAll(0, tmpls[:early])
			r.sendAll(2, tmpls[:early]) // no rule: recorded as misses
		}
		r.sendAll(0, tmpls) // fills the memo; the last templates find it full
		r.sendAll(0, tmpls[len(tmpls)-early:])
		if !noMemo {
			if n := r.sw.memo.Len(); n != memoCap {
				t.Fatalf("memo holds %d entries after %d templates, want %d", n, len(tmpls)+early, memoCap)
			}
			if r.replays(tmpls[len(tmpls)-1], 0) {
				t.Fatal("a template first seen with the memo full was recorded")
			}
		}
		// A rule edit invalidates every entry; the early templates are
		// re-recorded by their next frame and replay from the one after.
		install(t, r.sw, rule(5, switchdef.Match{Fields: switchdef.FEthDst, EthDst: pkt.MAC{2, 0, 0, 0, 0, 9}}, output(1)))
		for pass := 0; pass < 2; pass++ {
			if !noMemo && pass == 1 {
				for i, tm := range tmpls[:early] {
					if !r.replays(tm, 0) || !r.replays(tm, 2) {
						t.Fatalf("template %d, recorded before the memo filled, does not replay after the rule edit", i)
					}
				}
			}
			r.sendAll(0, tmpls[:early])
			r.sendAll(2, tmpls[:early])
		}
		r.sendAll(0, tmpls[early:])
		if n := r.sw.memo.Len(); n > memoCap {
			t.Fatalf("memo holds %d entries, cap %d", n, memoCap)
		}
		if live := r.env.Pool.Live(); live != 0 {
			t.Fatalf("leaked %d buffers", live)
		}
		sw := r.sw
		return r, fmt.Sprintf("cycles=%d emc=%d mega=%d slow=%d nomatch=%d fwd=%d drop=%d evict=%d",
			r.m.Total(), sw.EMCHits, sw.MegaHits, sw.SlowHits, sw.NoMatch, sw.Forwarded, sw.Dropped, sw.EMCEvictions)
	}
	on, got := run(false)
	off, want := run(true)
	if got != want {
		t.Fatalf("memo on and off disagree:\n on: %s\noff: %s", got, want)
	}
	if len(on.fate) != len(off.fate) {
		t.Fatalf("%d frames delivered with the memo, %d without", len(on.fate), len(off.fate))
	}
	for i := range on.fate {
		if on.fate[i] != off.fate[i] {
			t.Fatalf("delivery %d: frame %d with the memo, %d without", i, on.fate[i], off.fate[i])
		}
	}
	if off.sw.memo.Len() != 0 {
		t.Fatalf("memo disabled, yet %d entries recorded", off.sw.memo.Len())
	}
}

// TestFullMemoPollDoesNotAllocate: once the memo is full, a poll of
// templates it has never seen records nothing, so it allocates nothing.
func TestFullMemoPollDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for itself")
	}
	if MemoDisabled() {
		t.Skip("memo disabled")
	}
	const runs = 50
	tmpls := memoTemplates(memoCap + (runs+2)*Burst)
	r := newMemoRig(t)
	r.sendAll(0, tmpls[:memoCap])
	if n := r.sw.memo.Len(); n != memoCap {
		t.Fatalf("memo holds %d entries, want %d", n, memoCap)
	}
	next := tmpls[memoCap:]
	r.send(0, next[:Burst]) // warm the pool, staging and output slices
	next = next[Burst:]
	avg := testing.AllocsPerRun(runs, func() {
		r.send(0, next[:Burst])
		next = next[Burst:]
	})
	if avg != 0 {
		t.Fatalf("a poll of %d new templates against a full memo allocates %.2f times", Burst, avg)
	}
	if n := r.sw.memo.Len(); n != memoCap {
		t.Fatalf("memo holds %d entries after the polls, want %d", n, memoCap)
	}
}
