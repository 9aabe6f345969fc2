// Package fastclick models FastClick (commit 8c9352e): the Click modular
// router rebuilt around DPDK, full-push batch processing, and
// run-to-completion scheduling.
//
// The data plane is the element graph the paper's configurations write:
// FromDPDKDevice(n) -> ToDPDKDevice(m) pairs, one per in_port → output
// rule (program.go), plus a Classifier-style dl_dst drop stage at the
// sources while drop rules are installed. Per Table 2 the NIC descriptor
// rings are raised to 4096.
package fastclick

import (
	"repro/internal/cost"
	"repro/internal/pkt"
	"repro/internal/switches/switchdef"
	"repro/internal/units"
)

// Burst is FastClick's RX burst / batch size.
const Burst = 32

// Cost constants, calibrated to land p2p 64B at ≈ 55 ns/packet (Fig. 4a:
// FastClick exceeds 10 Gbps bidirectional, below BESS).
const (
	elemBatchFixed = 18 // per element per batch
	fromPerPkt     = 48 // FromDPDKDevice: mbuf to Packet conversion, anno init
	toPerPkt       = 52 // ToDPDKDevice: batch to mbuf, tx queueing
	classifyPerPkt = 20 // dl_dst drop-stage pattern check
	vhostExtra     = 25 // extra per-packet toll on vhost-user devices
	jitterFrac     = 0.02
)

// Switch is a FastClick instance.
type Switch struct {
	switchdef.Counters

	// rxScratch is the receive staging array, reused across polls: a
	// stack array handed through the DevPort interface escapes, which
	// costs one heap allocation per poll.
	rxScratch [Burst]*pkt.Buf

	ports []switchdef.DevPort

	// sources holds one FromDPDKDevice per wired input port and toDevs
	// every ToDPDKDevice, each in the order Install created them: Poll
	// walks both in that order, so it is part of the cycle schedule.
	sources []*fromDevice
	toDevs  []*toDevice

	// Runtime rule state (program.go): dropMAC is the dl_dst drop set,
	// keyed by pkt.MAC.Key, applied Classifier-style at every source while
	// non-empty.
	dropMAC map[uint64]bool
}

var info = switchdef.Info{
	Name:              "fastclick",
	Display:           "FastClick",
	Version:           "8c9352e",
	SelfContained:     false,
	Paradigm:          "structured",
	ProcessingModel:   "RTC",
	VirtualIface:      "vhost-user",
	Reprogrammability: "low",
	Languages:         "C++",
	MainPurpose:       "Modular router",
	BestAt:            "VNF chaining",
	Remarks:           "Supports live migration, high latency at low workload",
	Tuning:            "Increase descriptor ring size to 4096",
	IOMode:            switchdef.PollMode,
	RxRingOverride:    4096,
	RuntimeRules:      true,
}

// New returns an unconfigured FastClick instance.
func New(switchdef.Env) *Switch { return &Switch{} }

// AddPort implements switchdef.Switch.
func (sw *Switch) AddPort(p switchdef.DevPort) int {
	sw.ports = append(sw.ports, p)
	return len(sw.ports) - 1
}

// CrossConnect implements switchdef.Switch as a canned rule program: each
// in_port → output rule is lowered by Install into a
// FromDPDKDevice -> ToDPDKDevice pair, exactly the pairs the paper's
// appendix writes by hand.
func (sw *Switch) CrossConnect(a, b int) error {
	for _, r := range switchdef.CrossConnectRules(a, b) {
		if err := sw.Install(r); err != nil {
			return err
		}
	}
	return nil
}

// Poll implements switchdef.Switch: pull one batch from every source and
// push it to its device (full-push run-to-completion), then flush staged
// vhost batches whose drain timer expired. Multi-core runs give each core
// its own Switch instance (private element state) — see internal/multicore.
func (sw *Switch) Poll(now units.Time, m *cost.Meter) bool {
	burst := &sw.rxScratch
	did := false
	for si := range sw.sources {
		src := sw.sources[si]
		n := src.dev.RxBurst(now, m, burst[:])
		if n == 0 {
			continue
		}
		did = true
		per := units.Cycles(fromPerPkt)
		if src.dev.Kind() == switchdef.VhostKind {
			per += vhostExtra
		}
		frames := pkt.Frames(burst[:n])
		m.ChargeNoisy(elemBatchFixed+units.Cycles(frames)*per, jitterFrac)
		if len(sw.dropMAC) > 0 {
			n, frames = sw.filterDrops(m, burst[:n], frames)
			if n == 0 {
				continue
			}
		}
		// Push the RX scratch slice directly: toDevice consumes the batch
		// synchronously and copies what it stages into its own storage.
		src.out.push(sw, now, m, burst[:n], frames)
	}
	for ti := range sw.toDevs {
		if sw.toDevs[ti].flushStale(sw, now, m) {
			did = true
		}
	}
	return did
}

// fromDevice is FromDPDKDevice: the batch source of one input port,
// wired to the ToDPDKDevice its in_port rule names.
type fromDevice struct {
	port int
	dev  switchdef.DevPort
	out  *toDevice
}

// toDevice is ToDPDKDevice: the transmit sink. Toward vhost-user devices
// FastClick accumulates its own output batches with a drain timer (part of
// its batching design; with the chain VNFs' l2fwd batching this is why
// FastClick's low-load loopback latency roughly doubles everyone else's in
// Table 3 while its p2p low-load latency stays small).
type toDevice struct {
	dev   switchdef.DevPort
	stage switchdef.Stage
}

const (
	vhostTxBatch = 32
	vhostTxDrain = 28 * units.Microsecond
)

// push sends batch, buffers standing for frames frames, through the device.
func (e *toDevice) push(sw *Switch, now units.Time, m *cost.Meter, batch []*pkt.Buf, frames int) {
	per := units.Cycles(toPerPkt)
	if e.dev.Kind() == switchdef.VhostKind {
		per += vhostExtra
	}
	m.ChargeNoisy(elemBatchFixed+units.Cycles(frames)*per, jitterFrac)
	if e.dev.Kind() != switchdef.VhostKind {
		sw.Transmit(now, m, e.dev, batch, frames)
		return
	}
	e.stage.Add(now, batch...)
	if e.stage.Frames >= vhostTxBatch || now-e.stage.Since >= vhostTxDrain {
		e.stage.Flush(now, m, e.dev, &sw.Counters)
	}
}

// flushStale transmits a staged vhost batch whose drain timer expired.
func (e *toDevice) flushStale(sw *Switch, now units.Time, m *cost.Meter) bool {
	if len(e.stage.Bufs) == 0 || now-e.stage.Since < vhostTxDrain {
		return false
	}
	e.stage.Flush(now, m, e.dev, &sw.Counters)
	return true
}

// NextWork implements cpu.Waiter: an empty iteration reads every source
// and nothing else until one has a frame or a staged vhost batch's drain
// timer expires.
func (sw *Switch) NextWork(now units.Time) units.Time {
	next := units.Never
	for _, src := range sw.sources {
		next = min(next, src.dev.NextRx(now))
	}
	for _, e := range sw.toDevs {
		if len(e.stage.Bufs) > 0 {
			next = min(next, e.stage.Since+vhostTxDrain)
		}
	}
	return next
}

func init() {
	switchdef.Register(info, func(env switchdef.Env) switchdef.Switch { return New(env) })
}
