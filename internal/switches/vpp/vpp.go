// Package vpp models FD.io VPP 19.04: a self-contained software router that
// processes packets in vectors through a forwarding graph.
//
// The paper's configuration ("test l2patch rx port0 tx port1") runs a
// fixed three-node graph, and Poll walks it node by node: dpdk-input reads
// one vector from every attached device, l2-patch then takes each patched
// port's vector (unpatched ports and ACL drops end at error-drop), and
// interface-output runs once per output port over every frame merged for
// it. Vector processing amortizes per-node fixed costs over up to 256
// packets, which is exactly why VPP stays fast under load and why its
// low-load latency is batch-bound.
package vpp

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/pkt"
	"repro/internal/switches/switchdef"
	"repro/internal/units"
)

// VectorSize is VPP's maximum vector length.
const VectorSize = 256

// Cost constants, calibrated so the end-to-end p2p per-packet cost lands at
// ≈ 58 ns (the paper's Fig. 4a: VPP exceeds 10 Gbps bidirectional at 64B but
// stays below BESS's 16 Gbps).
const (
	nodeFixed      = 35 // per node visit per vector
	inputPerPkt    = 28 // dpdk-input bookkeeping, beyond PMD costs
	patchPerPkt    = 52 // l2-patch rewrite + validation work
	outputPerPkt   = 29 // interface-output buffering
	aclPerPkt      = 14 // l2patch runtime drop-list check, beyond the hash probe
	costJitterFrac = 0.02
	vhostRxPenalty = 80 // paper §5.2: VPP pays extra receiving from vhost
	vhostTxPenalty = 25 // and a smaller toll transmitting to it
)

// Switch is a VPP instance.
type Switch struct {
	ports []switchdef.DevPort

	// rxVec is each port's dpdk-input vector for the dispatch in
	// progress (VectorSize capacity, reused across polls): every port is
	// read before l2-patch runs. Its buffers may be runs (pkt.Buf.Run):
	// every node charge prices the frames they stand for, which rxFrames
	// counts per vector.
	rxVec    [][]*pkt.Buf
	rxFrames []int

	patchTo []int // l2patch: rx port -> tx port (-1 = none)

	// acl is the runtime drop list on the l2patch path (program.go): a
	// feature-arc-style dl_dst filter, keyed by pkt.MAC.Key, consulted
	// only while non-empty, so rule-free runs charge nothing extra.
	acl map[uint64]bool
	// ACLDropped counts frames the runtime drop list discarded.
	ACLDropped int64

	txStage  [][]*pkt.Buf // per-port tx staging, flushed at frame end
	txFrames []int        // the frames each txStage holds
	// outOrder lists the ports l2-patch staged frames for, in the order it
	// first reached them: the order interface-output visits them.
	outOrder []int

	// Forwarded and Dropped count data-plane outcomes.
	Forwarded, Dropped int64
}

// New returns an unconfigured VPP instance.
func New(switchdef.Env) *Switch { return &Switch{} }

var info = switchdef.Info{
	Name:              "vpp",
	Display:           "VPP",
	Version:           "19.04",
	SelfContained:     true,
	Paradigm:          "structured",
	ProcessingModel:   "RTC",
	VirtualIface:      "vhost-user",
	Reprogrammability: "medium",
	Languages:         "C",
	MainPurpose:       "Full router",
	BestAt:            "VNF chaining",
	Remarks:           "Supports live migration",
	IOMode:            switchdef.PollMode,
	RuntimeRules:      true,
}

// AddPort implements switchdef.Switch.
func (sw *Switch) AddPort(p switchdef.DevPort) int {
	sw.ports = append(sw.ports, p)
	sw.rxVec = append(sw.rxVec, make([]*pkt.Buf, 0, VectorSize))
	sw.rxFrames = append(sw.rxFrames, 0)
	sw.txStage = append(sw.txStage, nil)
	sw.txFrames = append(sw.txFrames, 0)
	sw.patchTo = append(sw.patchTo, -1)
	return len(sw.ports) - 1
}

// CrossConnect implements switchdef.Switch as the canned rule program
// over the l2patch feature, as in the paper's appendix ("test l2patch rx
// port0 tx port1").
func (sw *Switch) CrossConnect(a, b int) error {
	if err := sw.checkPort(a); err != nil {
		return err
	}
	if err := sw.checkPort(b); err != nil {
		return err
	}
	for _, r := range switchdef.CrossConnectRules(a, b) {
		if err := sw.Install(r); err != nil {
			return err
		}
	}
	return nil
}

func (sw *Switch) checkPort(i int) error {
	if i < 0 || i >= len(sw.ports) {
		return fmt.Errorf("vpp: no port %d", i)
	}
	return nil
}

// Poll implements switchdef.Switch: one graph dispatch frame over every
// attached port. Multi-core runs give each worker core its own Switch
// instance with private vector scratch — see internal/multicore.
func (sw *Switch) Poll(now units.Time, m *cost.Meter) bool {
	got := false
	// dpdk-input: one vector of up to VectorSize frames per port.
	for i, p := range sw.ports {
		n := p.RxBurst(now, m, sw.rxVec[i][:VectorSize])
		sw.rxVec[i] = sw.rxVec[i][:n]
		if n == 0 {
			continue
		}
		got = true
		sw.rxFrames[i] = pkt.Frames(sw.rxVec[i])
		f := units.Cycles(sw.rxFrames[i])
		m.ChargeNoisy(nodeFixed+f*inputPerPkt, costJitterFrac)
		if p.Kind() == switchdef.VhostKind {
			// Receiving from vhost-user ports costs VPP extra (the
			// paper's "reversed unidirectional" finding).
			m.Charge(f * vhostRxPenalty)
		}
	}
	// l2-patch, in port order; unpatched ports' vectors go to error-drop.
	for i, v := range sw.rxVec {
		if len(v) == 0 {
			continue
		}
		frames := sw.rxFrames[i]
		tx := sw.patchTo[i]
		if tx < 0 {
			for _, b := range v {
				b.Free()
			}
			sw.Dropped += int64(frames)
			continue
		}
		m.ChargeNoisy(nodeFixed+units.Cycles(frames)*patchPerPkt, costJitterFrac)
		if len(sw.acl) > 0 {
			// Feature arc: the runtime drop list is consulted only while
			// rules are installed, so rule-free runs charge nothing here.
			m.Charge(units.Cycles(frames) * (m.Model.HashLookup + aclPerPkt))
			keep := v[:0]
			for _, b := range v {
				if sw.acl[pkt.EthDst(b.View()).Key()] {
					k := int64(b.Run())
					frames -= int(k)
					b.Free()
					sw.ACLDropped += k
					sw.Dropped += k
					continue
				}
				keep = append(keep, b)
			}
			if len(keep) == 0 {
				continue
			}
			v = keep
		}
		if len(sw.txStage[tx]) == 0 {
			sw.outOrder = append(sw.outOrder, tx)
		}
		sw.txStage[tx] = append(sw.txStage[tx], v...)
		sw.txFrames[tx] += frames
	}
	// interface-output: one visit per output port over its merged vector.
	for _, tx := range sw.outOrder {
		m.ChargeNoisy(nodeFixed+units.Cycles(sw.txFrames[tx])*outputPerPkt, costJitterFrac)
	}
	sw.outOrder = sw.outOrder[:0]
	// Flush staged tx.
	for i := range sw.ports {
		stage := sw.txStage[i]
		if len(stage) == 0 {
			continue
		}
		got = true
		frames := sw.txFrames[i]
		if sw.ports[i].Kind() == switchdef.VhostKind {
			m.Charge(units.Cycles(frames) * vhostTxPenalty)
		}
		sent := sw.ports[i].TxBurst(now, m, stage)
		sw.Forwarded += int64(sent)
		sw.Dropped += int64(frames - sent)
		sw.txStage[i], sw.txFrames[i] = stage[:0], 0
	}
	return got
}

// NextWork implements cpu.Waiter: an empty dispatch frame reads every port
// and charges only the drivers' fixed receive cost, so nothing changes
// until a port has a frame.
func (sw *Switch) NextWork(now units.Time) units.Time {
	return switchdef.EarliestRx(now, sw.ports)
}

func init() {
	switchdef.Register(info, func(env switchdef.Env) switchdef.Switch { return New(env) })
}
