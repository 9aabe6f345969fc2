// Package t4p4s models t4p4s (commit b1161b2): a platform-independent P4
// software switch whose compiler turns P4 programs into a DPDK data plane.
//
// The pipeline is the real P4 shape: a header parser, a match/action
// table, and a deparser that serializes modified headers back into the
// frame. The program is the paper's l2fwd: one exact table keyed on the
// destination MAC whose action forwards to a port, optionally rewriting
// the MAC (Table 2's tuning — "remove source MAC learning phase" — is why
// no smac table is installed).
//
// Two t4p4s findings from the paper are in the cost model: every packet
// pays the parse/deparse + hardware-abstraction-layer tax (it never
// saturates 64B line rate), and the pipeline's high cost variance produces
// the paper's extreme 0.99·R⁺ latencies (Table 3).
package t4p4s

import (
	"repro/internal/cost"
	"repro/internal/pkt"
	"repro/internal/switches/switchdef"
	"repro/internal/units"
)

// Burst is the DPDK RX burst size.
const Burst = 32

// Cost constants, calibrated to land p2p 64B at ≈ 116 ns/packet (Fig. 4a:
// ≈5.6 Gbps unidirectional) with heavy per-burst jitter.
const (
	parseFixed       = 70   // header parsing state machine
	deparseFixed     = 27   // header re-serialization
	tablePerLookup   = 31   // beyond the hash probe
	halPerPkt        = 27   // hardware abstraction layer indirection
	pipePerByteMilli = 615  // 0.9 cycles/B parse/deparse byte handling
	jitterFrac       = 0.25 // unstable pipeline (paper Table 3)
)

// Switch is a t4p4s instance running a compiled P4 program.
type Switch struct {
	switchdef.Counters

	// rxScratch is the receive staging array, reused across polls: a
	// stack array handed through the DevPort interface escapes, which
	// costs one heap allocation per poll.
	rxScratch [Burst]*pkt.Buf

	env   switchdef.Env
	ports []switchdef.DevPort
	dmac  *Table
	tx    []switchdef.Stage // per port
}

// The t4p4s HAL buffers transmissions aggressively: frames leave when a
// large batch completes or the drain timer fires. This is the source of its
// ≈30 µs p2p latency floor at low and medium load (Table 3).
const (
	txFlushBatch = 256
	txFlushDrain = 56 * units.Microsecond
)

// pipeMod models the pipeline's instability (the paper's Table 3: by far
// the worst 0.99·R⁺ latencies): recurring phases of degraded efficiency
// that outlast the recovery headroom, so near-saturation runs congest.
var pipeMod = cost.Modulation{
	HighFactor: 1.18, HighDur: 1200 * units.Microsecond,
	LowFactor: 0.96, LowDur: 800 * units.Microsecond,
}

var info = switchdef.Info{
	Name:              "t4p4s",
	Display:           "t4p4s",
	Version:           "b1161b2",
	SelfContained:     true,
	Paradigm:          "match/action",
	ProcessingModel:   "RTC",
	VirtualIface:      "vhost-user",
	Reprogrammability: "medium",
	Languages:         "C, Python",
	MainPurpose:       "P4 switch",
	BestAt:            "Stateful SDN deployments",
	Remarks:           "Supports P4 language",
	Tuning:            "Remove source MAC learning phase",
	IOMode:            switchdef.PollMode,
	RuntimeRules:      true,
	RxRingOverride:    2048,
}

// New returns a t4p4s instance loaded with the l2fwd program (an empty
// dmac table; entries are installed by CrossConnect or Install).
func New(env switchdef.Env) *Switch {
	return &Switch{
		env:  env,
		dmac: NewTable(Entry{Action: ActDrop}),
	}
}

// AddPort implements switchdef.Switch.
func (sw *Switch) AddPort(p switchdef.DevPort) int {
	sw.ports = append(sw.ports, p)
	sw.tx = append(sw.tx, switchdef.Stage{})
	return len(sw.ports) - 1
}

// CrossConnect implements switchdef.Switch as the canned MAC-vocabulary
// rule program: per the paper, the l2fwd flow table is populated with
// "destination MAC address → output port" entries using the testbed's
// PortMAC convention.
func (sw *Switch) CrossConnect(a, b int) error {
	for _, r := range switchdef.CrossConnectMACRules(a, b) {
		if err := sw.Install(r); err != nil {
			return err
		}
	}
	return nil
}

// Poll implements switchdef.Switch: one lcore iteration over every
// attached port. Multi-core runs give each lcore its own Switch instance
// (a private dmac table) — see internal/multicore.
func (sw *Switch) Poll(now units.Time, m *cost.Meter) bool {
	burst := &sw.rxScratch
	// now is constant for the whole poll, so the pipeline modulation
	// factor is too: resolve it once instead of per frame.
	pf := pipeMod.Factor(now)
	did := false
	for i := range sw.ports {
		p := sw.ports[i]
		n := p.RxBurst(now, m, burst[:])
		if n == 0 {
			continue
		}
		did = true
		if p.Kind() == switchdef.VhostKind {
			// t4p4s needed offloads disabled to work with
			// vhost-user at all (paper appendix A.2); the crossing
			// costs it extra.
			m.Charge(units.Cycles(pkt.Frames(burst[:n])) * 118)
		}
		for _, b := range burst[:n] {
			sw.process(now, m, b, pf)
		}
	}
	for i, p := range sw.ports {
		st := &sw.tx[i]
		if len(st.Bufs) == 0 || st.Frames < txFlushBatch && now-st.Since < txFlushDrain {
			continue
		}
		did = true
		if p.Kind() == switchdef.VhostKind {
			// The disabled-offload vhost path costs on TX too.
			m.Charge(units.Cycles(st.Frames) * 30)
		}
		st.Flush(now, m, p, &sw.Counters)
	}
	return did
}

// process runs the frames of b through the pipeline. The frames of a run
// are identical, so one parse and one table lookup decide for them all,
// while each frame still draws its own parse and deparse noise, in frame
// order.
func (sw *Switch) process(now units.Time, m *cost.Meter, b *pkt.Buf, pf float64) {
	k := b.Run()
	perByte := pipePerByteMilli * units.Cycles(b.Len()) / 1000
	parse := cost.ScaleBy(pf, parseFixed+halPerPkt+perByte)

	// Parser: the l2fwd program's one table matches dl_dst only, so the
	// parser rejects a frame too short for an Ethernet header and reads
	// that one field in place (the frame stays template-backed). Whole-
	// header ParseEth / Put would agree byte for byte (pkt's
	// FuzzEthRoundTrip) but copy fields nothing reads through the stack.
	v := b.View()
	if len(v) < pkt.EthHdrLen {
		m.ChargeNoisyBatch(parse, jitterFrac, k)
		sw.Discard(b)
		return
	}

	// Match/action stage: the dmac table.
	m.Charge(units.Cycles(k) * (m.Model.HashLookup + tablePerLookup))
	e, _ := sw.dmac.lookup(pkt.EthDst(v), k)
	if e.Action == ActDrop {
		m.ChargeNoisyBatch(parse, jitterFrac, k)
		sw.Discard(b)
		return
	}

	// Each frame's parse and deparse draws, in frame order. Deparser: only
	// a set-dmac action changed a header field.
	for i := 0; i < k; i++ {
		m.ChargeNoisy(parse, jitterFrac)
		m.ChargeNoisy(deparseFixed, jitterFrac)
	}
	if e.Action == ActSetDstMAC {
		pkt.SetEthDst(b.Bytes(), e.MAC)
	}
	sw.tx[e.Port].Add(now, b)
}

// NextWork implements cpu.Waiter: an empty lcore iteration charges the
// drivers' fixed receive cost until a port has a frame or a staged TX
// batch's drain timer expires.
func (sw *Switch) NextWork(now units.Time) units.Time {
	next := switchdef.EarliestRx(now, sw.ports)
	for _, st := range sw.tx {
		if len(st.Bufs) > 0 {
			next = min(next, st.Since+txFlushDrain)
		}
	}
	return next
}

func init() {
	switchdef.Register(info, func(env switchdef.Env) switchdef.Switch { return New(env) })
}
