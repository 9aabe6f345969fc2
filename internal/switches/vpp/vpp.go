// Package vpp models FD.io VPP 19.04: a self-contained software router that
// processes packets in vectors through a forwarding graph.
//
// The data plane here is a real graph: dpdk-input pulls bursts from the
// attached devices and hands per-port vectors to the l2-patch node (the
// paper's p2p/p2v/v2v configuration: "test l2patch rx port0 tx port1"),
// which feeds interface-output; unpatched ports and ACL drops end at
// error-drop. Vector processing amortizes per-node fixed costs over up to
// 256 packets, which is exactly why VPP stays fast under load and why its
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

// Node is one graph node.
type Node interface {
	Name() string
	// Process handles a vector arriving with the given context (the
	// port index).
	Process(sw *Switch, now units.Time, m *cost.Meter, ctx int, v []*pkt.Buf)
}

// Dense node identities, in registration order. Per-packet enqueues index
// an array with these instead of hashing a (name, ctx) map key.
const (
	nodeL2Patch = iota
	nodeOutput
	nodeDrop
	numNodes
)

// pendingVec is one not-yet-dispatched (node, ctx) vector on the frame's
// FIFO work queue.
type pendingVec struct {
	node int32
	ctx  int32
	vec  []*pkt.Buf
}

// Switch is a VPP instance.
type Switch struct {
	// rxScratch is the receive staging array, reused across polls: a
	// stack array handed through the DevPort interface escapes, which
	// costs one heap allocation per poll.
	rxScratch [VectorSize]*pkt.Buf

	ports []switchdef.DevPort

	nodes [numNodes]Node

	// q/qHead are the dispatch frame's FIFO of pending vectors. This is
	// exactly equivalent to the two-level rounds loop it replaced (merge
	// into any not-yet-processed (node, ctx) entry, else append), but
	// with a linear scan over the few live tail entries instead of a
	// map insert/delete pair per node visit.
	q     []pendingVec
	qHead int

	// vecFree recycles dispatch-frame vectors across polls; a graph
	// frame otherwise allocates one vector per (node, ctx) pair it
	// visits, every poll.
	vecFree [][]*pkt.Buf

	patchTo []int // l2patch: rx port -> tx port (-1 = none)

	// acl is the runtime drop list on the l2patch path (program.go): a
	// feature-arc-style dl_dst filter consulted only while non-empty, so
	// rule-free runs charge nothing extra. prog backs Snapshot.
	acl  map[pkt.MAC]bool
	prog switchdef.RuleLedger
	// ACLDropped counts frames the runtime drop list discarded.
	ACLDropped int64

	txStage [][]*pkt.Buf // per-port tx staging, flushed at frame end

	// Forwarded and Dropped count data-plane outcomes.
	Forwarded, Dropped int64
}

// New returns an unconfigured VPP instance.
func New(switchdef.Env) *Switch {
	sw := &Switch{}
	sw.nodes = [numNodes]Node{
		nodeL2Patch: patchNode{},
		nodeOutput:  outputNode{},
		nodeDrop:    dropNode{},
	}
	return sw
}

// Info implements switchdef.Switch.
func (sw *Switch) Info() switchdef.Info { return info }

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
	sw.txStage = append(sw.txStage, nil)
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

// getVec returns a recycled (empty) vector for a dispatch frame.
func (sw *Switch) getVec() []*pkt.Buf {
	if n := len(sw.vecFree); n > 0 {
		v := sw.vecFree[n-1]
		sw.vecFree = sw.vecFree[:n-1]
		return v
	}
	return make([]*pkt.Buf, 0, VectorSize)
}

// putVec parks a consumed vector for reuse.
func (sw *Switch) putVec(v []*pkt.Buf) {
	v = v[:0]
	sw.vecFree = append(sw.vecFree, v)
}

// enqueue hands a vector to a node for this dispatch frame. The contents
// are copied into a per-(node, ctx) pending vector, so callers keep
// ownership of the slice itself. Merging targets any not-yet-dispatched
// queue entry; the scan is linear but the live tail is a handful of
// entries at most (one per distinct (node, ctx) still in flight).
func (sw *Switch) enqueue(node, ctx int, bufs []*pkt.Buf) {
	for i := sw.qHead; i < len(sw.q); i++ {
		e := &sw.q[i]
		if int(e.node) == node && int(e.ctx) == ctx {
			e.vec = append(e.vec, bufs...)
			return
		}
	}
	sw.q = append(sw.q, pendingVec{node: int32(node), ctx: int32(ctx), vec: append(sw.getVec(), bufs...)})
}

// enqueue1 is enqueue for a single frame, avoiding the slice header a
// []*pkt.Buf{b} literal would heap-allocate per packet.
func (sw *Switch) enqueue1(node, ctx int, b *pkt.Buf) {
	for i := sw.qHead; i < len(sw.q); i++ {
		e := &sw.q[i]
		if int(e.node) == node && int(e.ctx) == ctx {
			e.vec = append(e.vec, b)
			return
		}
	}
	sw.q = append(sw.q, pendingVec{node: int32(node), ctx: int32(ctx), vec: append(sw.getVec(), b)})
}

// Poll implements switchdef.Switch: one graph dispatch frame over every
// attached port. Multi-core runs give each worker core its own Switch
// instance with private vector-graph scratch — see internal/multicore.
func (sw *Switch) Poll(now units.Time, m *cost.Meter) bool {
	// dpdk-input: pull one vector per port.
	burst := &sw.rxScratch
	got := false
	for i := range sw.ports {
		p := sw.ports[i]
		n := p.RxBurst(now, m, burst[:])
		if n == 0 {
			continue
		}
		got = true
		m.ChargeNoisy(nodeFixed+units.Cycles(n)*inputPerPkt, costJitterFrac)
		if p.Kind() == switchdef.VhostKind {
			// Receiving from vhost-user ports costs VPP extra (the
			// paper's "reversed unidirectional" finding).
			m.Charge(units.Cycles(n) * vhostRxPenalty)
		}
		v := burst[:n]
		if sw.patchTo[i] >= 0 {
			sw.enqueue(nodeL2Patch, i, v)
		} else {
			sw.enqueue(nodeDrop, i, v)
		}
	}
	// Graph dispatch until quiescent: plain FIFO over pending vectors.
	for sw.qHead < len(sw.q) {
		ent := sw.q[sw.qHead]
		// Drop the queue's reference before Process may grow sw.q.
		sw.q[sw.qHead].vec = nil
		sw.qHead++
		sw.nodes[ent.node].Process(sw, now, m, int(ent.ctx), ent.vec)
		// Nodes pass frames onward by value (enqueue copies), so the
		// vector itself is dead once Process returns.
		sw.putVec(ent.vec)
	}
	sw.q = sw.q[:0]
	sw.qHead = 0
	// Flush staged tx.
	for i := range sw.ports {
		stage := sw.txStage[i]
		if len(stage) == 0 {
			continue
		}
		got = true
		if sw.ports[i].Kind() == switchdef.VhostKind {
			m.Charge(units.Cycles(len(stage)) * vhostTxPenalty)
		}
		sent := sw.ports[i].TxBurst(now, m, stage)
		sw.Forwarded += int64(sent)
		sw.Dropped += int64(len(stage) - sent)
		sw.txStage[i] = stage[:0]
	}
	return got
}

type patchNode struct{}

func (patchNode) Name() string { return "l2-patch" }
func (patchNode) Process(sw *Switch, now units.Time, m *cost.Meter, ctx int, v []*pkt.Buf) {
	m.ChargeNoisy(nodeFixed+units.Cycles(len(v))*patchPerPkt, costJitterFrac)
	if len(sw.acl) > 0 {
		// Feature arc: the runtime drop list is consulted only while
		// rules are installed, so rule-free runs charge nothing here.
		m.Charge(units.Cycles(len(v)) * (m.Model.HashLookup + aclPerPkt))
		keep := v[:0]
		for _, b := range v {
			if sw.acl[pkt.EthDst(b.View())] {
				sw.ACLDropped++
				sw.enqueue1(nodeDrop, ctx, b)
				continue
			}
			keep = append(keep, b)
		}
		if len(keep) == 0 {
			return
		}
		v = keep
	}
	sw.enqueue(nodeOutput, sw.patchTo[ctx], v)
}

type outputNode struct{}

func (outputNode) Name() string { return "interface-output" }
func (outputNode) Process(sw *Switch, now units.Time, m *cost.Meter, ctx int, v []*pkt.Buf) {
	m.ChargeNoisy(nodeFixed+units.Cycles(len(v))*outputPerPkt, costJitterFrac)
	sw.txStage[ctx] = append(sw.txStage[ctx], v...)
}

type dropNode struct{}

func (dropNode) Name() string { return "error-drop" }
func (dropNode) Process(sw *Switch, now units.Time, m *cost.Meter, ctx int, v []*pkt.Buf) {
	for _, b := range v {
		b.Free()
	}
	sw.Dropped += int64(len(v))
}

func init() {
	switchdef.Register(info, func(env switchdef.Env) switchdef.Switch { return New(env) })
}
