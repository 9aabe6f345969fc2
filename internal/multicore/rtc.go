package multicore

import (
	"repro/internal/cost"
	"repro/internal/pkt"
	"repro/internal/ring"
	"repro/internal/switches/switchdef"
	"repro/internal/units"
)

// RTC pipeline core layout: core 0 receives and steers, the last core
// drains transmissions, and the cores in between each run a full switch
// instance as a processing stage. With only two cores the process stage
// absorbs the receive role and polls the devices itself.
//
// Every ring crossing charges the calibrated handoff taxes; a crossing
// between cores on different sockets additionally pays the remote touch
// tax on the consumer side.
type rtcState struct {
	opt rtcLayout

	// Per port, in attachment order.
	rxViews []switchdef.DevPort // receive-core device views (3+ cores)
	txViews []switchdef.DevPort // transmit-core device views
	in      []*ring.SPSC        // steer → process handoff (nil when direct)

	// outs[k][port]: process stage k → transmit core handoff.
	outs [][]*ring.SPSC
	// remoteOut notes process stages on a different socket than the
	// transmit core (the drain pop crosses the interconnect).
	remoteOut []bool
}

// rtcLayout is the fleet geometry the rtc state needs.
type rtcLayout struct {
	cores    int
	procs    int
	queueCap int
	numa     cost.NUMA
}

func newRTCState(opt Options) *rtcState {
	procs := opt.Cores - 2
	if procs < 1 {
		procs = 1
	}
	st := &rtcState{
		opt:       rtcLayout{cores: opt.Cores, procs: procs, queueCap: opt.QueueCap, numa: opt.NUMA},
		outs:      make([][]*ring.SPSC, procs),
		remoteOut: make([]bool, procs),
	}
	for k := 0; k < procs; k++ {
		st.remoteOut[k] = st.opt.numa.SocketOf(st.procCore(k)) != st.opt.numa.SocketOf(opt.Cores-1)
	}
	return st
}

// procCore maps a process stage to its core index.
func (st *rtcState) procCore(k int) int {
	if st.opt.cores == 2 {
		return 0
	}
	return 1 + k
}

// direct reports whether the process stage polls devices itself.
func (st *rtcState) direct() bool { return st.opt.cores == 2 }

func (st *rtcState) drops() int64 {
	var n int64
	for _, r := range st.in {
		if r != nil {
			n += r.Drops
		}
	}
	for _, rs := range st.outs {
		for _, r := range rs {
			n += r.Drops
		}
	}
	return n
}

// rtcViews builds the per-process-stage views of one port.
func (f *Fleet) rtcViews(idx int, p switchdef.DevPort) []switchdef.DevPort {
	st := f.rtc
	st.txViews = append(st.txViews, f.wrapRemote(f.opt.Cores-1, p))
	if st.direct() {
		st.in = append(st.in, nil)
	} else {
		st.rxViews = append(st.rxViews, f.wrapRemote(0, p))
		st.in = append(st.in, ring.New(st.opt.queueCap))
	}
	views := make([]switchdef.DevPort, st.opt.procs)
	for k := 0; k < st.opt.procs; k++ {
		st.outs[k] = append(st.outs[k], ring.New(st.opt.queueCap))
		v := &rtcProcPort{dev: p, out: st.outs[k][idx]}
		switch {
		case st.direct():
			v.direct = p // core 0 is on the device's home socket
		case idx%st.opt.procs == k:
			// Static port → stage steering keeps each handoff ring
			// single-producer/single-consumer and preserves per-port
			// frame order.
			v.in = st.in[idx]
			v.remoteIn = st.opt.numa.Remote(st.procCore(k), 0)
		}
		views[k] = v
	}
	return views
}

// rtcRxPoll is the receive/steer core: drain every device at full PMD
// price, classify (steer tax), and hand each burst to the port's process
// stage. A full handoff ring drops, like any full queue.
func (f *Fleet) rtcRxPoll(now units.Time, m *cost.Meter) bool {
	st := f.rtc
	did := false
	for i, rv := range st.rxViews {
		n := rv.RxBurst(now, m, f.scratch[:])
		if n == 0 {
			continue
		}
		did = true
		m.Charge(m.Model.SteerPerPkt * units.Cycles(n))
		r := st.in[i]
		for _, b := range f.scratch[:n] {
			m.Charge(m.Model.HandoffPush)
			if !r.Push(b) {
				b.Free()
			}
		}
	}
	return did
}

// rtcTxPoll is the transmit core: pop every process stage's staged
// frames (handoff tax, plus the remote tax for cross-socket stages) and
// send them through the real device at full PMD price.
func (f *Fleet) rtcTxPoll(now units.Time, m *cost.Meter) bool {
	st := f.rtc
	did := false
	for i := range f.ports {
		tv := st.txViews[i]
		for k := range st.outs {
			r := st.outs[k][i]
			n := r.DrainTo(f.scratch[:])
			if n == 0 {
				continue
			}
			did = true
			for _, b := range f.scratch[:n] {
				m.Charge(m.Model.HandoffPop)
				if st.remoteOut[k] {
					m.Charge(m.Model.RemoteCost(b.Len()))
				}
			}
			tv.TxBurst(now, m, f.scratch[:n])
		}
	}
	return did
}

// rtcProcPort is a process stage's view of one port: receive pops the
// steer core's handoff ring (or polls the device directly in the 2-core
// layout), transmit pushes to the stage's outbound ring toward the
// transmit core.
type rtcProcPort struct {
	dev    switchdef.DevPort
	direct switchdef.DevPort // non-nil: 2-core layout, poll the device
	in     *ring.SPSC        // nil for ports steered to another stage
	out    *ring.SPSC

	remoteIn bool
}

func (p *rtcProcPort) Kind() switchdef.PortKind { return p.dev.Kind() }
func (p *rtcProcPort) Name() string             { return p.dev.Name() }

func (p *rtcProcPort) RxBurst(now units.Time, m *cost.Meter, out []*pkt.Buf) int {
	if p.direct != nil {
		return p.direct.RxBurst(now, m, out)
	}
	if p.in == nil {
		return 0
	}
	n := p.in.DrainTo(out)
	for _, b := range out[:n] {
		m.Charge(m.Model.HandoffPop)
		if p.remoteIn {
			m.Charge(m.Model.RemoteCost(b.Len()))
		}
	}
	return n
}

func (p *rtcProcPort) TxBurst(now units.Time, m *cost.Meter, in []*pkt.Buf) int {
	sent := 0
	for _, b := range in {
		m.Charge(m.Model.HandoffPush)
		if p.out.Push(b) {
			sent++
		} else {
			b.Free()
		}
	}
	return sent
}

func (p *rtcProcPort) NextRx(now units.Time) units.Time { return now }
