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
	"repro/internal/flowtab"
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
	// rxScratch is the receive staging array, reused across polls: a
	// stack array handed through the DevPort interface escapes, which
	// costs one heap allocation per poll.
	rxScratch [Burst]*pkt.Buf

	env   switchdef.Env
	ports []switchdef.DevPort
	dmac  *Table

	txStage [][]*pkt.Buf
	txFirst []units.Time

	// memo caches the full pipeline traversal per packet template: the
	// match/action stage reads only frame bytes, so every frame sharing a
	// template takes the same path and charges the same deterministic table
	// cycles (the parse and deparse draws stay per-frame). Entries carry
	// the table version they were recorded under.
	memo *flowtab.Map[uint64, t4Memo]

	// prog tracks the typed rules installed through the Programmer
	// surface (program.go), backing Snapshot.
	prog switchdef.RuleLedger

	// Forwarded and Dropped count data-plane outcomes.
	Forwarded, Dropped int64
}

// t4Memo outcome kinds.
const (
	t4Forward       uint8 = iota + 1
	t4DropNoDeparse       // dropped before the deparser draw (parse error or ActDrop)
)

// t4Memo is one recorded pipeline traversal: the deterministic table
// cycles to charge, the hit/miss counter to bump (nil when the parser
// dropped the frame before the table), and the outcome. Frames whose
// traversal rewrites the packet (ActSetDstMAC) are never memoized.
type t4Memo struct {
	tabVer uint64
	cycles units.Cycles
	bump   *int64
	out    int32
	kind   uint8
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
		memo: flowtab.NewMap[uint64, t4Memo](16),
	}
}

// Info implements switchdef.Switch.
func (sw *Switch) Info() switchdef.Info { return info }

// AddPort implements switchdef.Switch.
func (sw *Switch) AddPort(p switchdef.DevPort) int {
	sw.ports = append(sw.ports, p)
	sw.txStage = append(sw.txStage, nil)
	sw.txFirst = append(sw.txFirst, 0)
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
			m.Charge(units.Cycles(n) * 118)
		}
		for _, b := range burst[:n] {
			sw.process(now, m, b, pf)
		}
	}
	for i := range sw.ports {
		stage := sw.txStage[i]
		if len(stage) == 0 {
			continue
		}
		if len(stage) < txFlushBatch && now-sw.txFirst[i] < txFlushDrain {
			continue
		}
		did = true
		if sw.ports[i].Kind() == switchdef.VhostKind {
			// The disabled-offload vhost path costs on TX too.
			m.Charge(units.Cycles(len(stage)) * 30)
		}
		sent := sw.ports[i].TxBurst(now, m, stage)
		sw.Forwarded += int64(sent)
		sw.Dropped += int64(len(stage) - sent)
		sw.txStage[i] = stage[:0]
	}
	return did
}

func (sw *Switch) process(now units.Time, m *cost.Meter, b *pkt.Buf, pf float64) {
	perByte := pipePerByteMilli * units.Cycles(b.Len()) / 1000
	parseCost := cost.ScaleBy(pf, parseFixed+halPerPkt+perByte)

	var memoID uint64
	recording := false
	if !switchdef.MemoDisabled() {
		if t := b.Template(); t != nil {
			memoID = t.ID()
			if e, ok := sw.memo.Get(flowtab.HashUint64(memoID), memoID); ok && e.tabVer == sw.dmac.version {
				sw.replayMemo(now, m, b, &e, parseCost)
				return
			}
			recording = true
		}
	}
	rec := t4Memo{tabVer: sw.dmac.version}

	// Parser (read-only; the deparser materializes if it must write).
	eth, err := pkt.ParseEth(b.View())
	m.ChargeNoisy(parseCost, jitterFrac)
	if err != nil {
		if recording {
			rec.kind = t4DropNoDeparse
			sw.memo.Put(flowtab.HashUint64(memoID), memoID, rec)
		}
		b.Free()
		sw.Dropped++
		return
	}

	// Match/action stage: the dmac table.
	t := sw.dmac
	m.Charge(m.Model.HashLookup + tablePerLookup)
	e, hit := t.lookup(eth.Dst)
	rec.cycles = m.Model.HashLookup + tablePerLookup
	rec.bump = &t.Misses
	if hit {
		rec.bump = &t.Hits
	}
	out := e.Port
	dirty := false
	switch e.Action {
	case ActDrop:
		if recording {
			rec.kind = t4DropNoDeparse
			sw.memo.Put(flowtab.HashUint64(memoID), memoID, rec)
		}
		b.Free()
		sw.Dropped++
		return
	case ActSetDstMAC:
		eth.Dst = e.MAC
		dirty = true
		// The deparser will rewrite the frame bytes, detaching it from its
		// template: this traversal is not replayable.
		recording = false
	}

	// Deparser.
	m.ChargeNoisy(deparseFixed, jitterFrac)
	if dirty {
		eth.Put(b.Bytes())
	}
	if recording {
		rec.kind = t4Forward
		rec.out = int32(out)
		sw.memo.Put(flowtab.HashUint64(memoID), memoID, rec)
	}
	if len(sw.txStage[out]) == 0 {
		sw.txFirst[out] = now
	}
	sw.txStage[out] = append(sw.txStage[out], b)
}

// replayMemo re-runs a recorded traversal: the per-frame parse draw, the
// deterministic table charge, the counter bump, and — only for traversals
// that reached the deparser — the per-frame deparse draw. The
// charge and RNG-draw sequence is identical to the reference path's.
func (sw *Switch) replayMemo(now units.Time, m *cost.Meter, b *pkt.Buf, e *t4Memo, parseCost units.Cycles) {
	m.ChargeNoisy(parseCost, jitterFrac)
	m.Charge(e.cycles)
	if e.bump != nil {
		*e.bump++
	}
	if e.kind == t4DropNoDeparse {
		b.Free()
		sw.Dropped++
		return
	}
	m.ChargeNoisy(deparseFixed, jitterFrac)
	out := int(e.out)
	if len(sw.txStage[out]) == 0 {
		sw.txFirst[out] = now
	}
	sw.txStage[out] = append(sw.txStage[out], b)
}

// NextWork implements cpu.Waiter: an empty lcore iteration charges the
// drivers' fixed receive cost until a port has a frame or a staged TX
// batch's drain timer expires.
func (sw *Switch) NextWork(now units.Time) units.Time {
	next := switchdef.EarliestRx(now, sw.ports)
	for i, stage := range sw.txStage {
		if len(stage) > 0 {
			next = min(next, sw.txFirst[i]+txFlushDrain)
		}
	}
	return next
}

func init() {
	switchdef.Register(info, func(env switchdef.Env) switchdef.Switch { return New(env) })
}
