// Package switchtest provides a scriptable device port and helpers for
// exercising switch data planes in isolation (no NICs, no scheduler): feed
// frames into fake ports, poll the switch, and inspect what came out where.
package switchtest

import (
	"repro/internal/cost"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/switches/switchdef"
	"repro/internal/units"
)

// FakePort is an in-memory DevPort: tests push frames into In and read
// transmissions from Out.
type FakePort struct {
	PortName string
	PortKind switchdef.PortKind
	In       []*pkt.Buf
	Out      []*pkt.Buf
	// RejectTx makes TxBurst refuse (and free) everything.
	RejectTx bool

	RxCount, TxCount int64
}

// NewFakePort returns a physical-kind fake port.
func NewFakePort(name string) *FakePort {
	return &FakePort{PortName: name, PortKind: switchdef.PhysKind}
}

// Kind implements switchdef.DevPort.
func (p *FakePort) Kind() switchdef.PortKind { return p.PortKind }

// Name implements switchdef.DevPort.
func (p *FakePort) Name() string { return p.PortName }

// RxBurst implements switchdef.DevPort.
func (p *FakePort) RxBurst(now units.Time, m *cost.Meter, out []*pkt.Buf) int {
	n := copy(out, p.In)
	p.In = p.In[:copy(p.In, p.In[n:])]
	p.RxCount += int64(n)
	return n
}

// TxBurst implements switchdef.DevPort.
func (p *FakePort) TxBurst(now units.Time, m *cost.Meter, in []*pkt.Buf) int {
	if p.RejectTx {
		for _, b := range in {
			b.Free()
		}
		return 0
	}
	p.Out = append(p.Out, in...)
	p.TxCount += int64(len(in))
	return len(in)
}

// NextRx implements switchdef.DevPort: frames in In are visible at once.
func (p *FakePort) NextRx(now units.Time) units.Time {
	if len(p.In) > 0 {
		return now
	}
	return units.Never
}

// Env returns a ready test environment.
func Env() switchdef.Env {
	return switchdef.Env{
		Model: cost.Default(),
		RNG:   sim.NewRNG(42),
		Pool:  pkt.NewPool(2048),
	}
}

// Meter returns a fresh meter for the environment.
func Meter(env switchdef.Env) *cost.Meter {
	return cost.NewMeter(env.Model, env.RNG.Derive("test"))
}

// Frame builds a frame with the given addressing in a fresh buffer.
func Frame(pool *pkt.Pool, src, dst pkt.MAC, size int) *pkt.Buf {
	b := pool.Get(size)
	pkt.FrameSpec{
		SrcMAC: src, DstMAC: dst,
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000, FrameLen: size,
	}.Build(b)
	return b
}

// PollUntilIdle polls the switch until it reports no work (bounded).
func PollUntilIdle(sw switchdef.Switch, m *cost.Meter, start units.Time) units.Time {
	now := start
	for i := 0; i < 10000; i++ {
		did := sw.Poll(now, m)
		now += m.Drain() + units.Nanosecond
		if !did {
			return now
		}
	}
	return now
}
