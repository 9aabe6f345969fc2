// Package bess models the Berkeley Extensible Software Switch (BESS,
// Haswell build): a modular switch whose daemon schedules "tasks" (source
// modules) and pushes batches through a module/gate pipeline.
//
// The paper's configurations hook ports with PMDPort and link
// QueueInc → QueueOut modules, one such pipeline per direction; each is
// one task here, priced as those two modules. BESS's p2p dominance
// (16 Gbps bidirectional at 64B) comes from how little work its modules
// do — essentially statistics collection.
// Its QEMU incompatibility (paper footnote 5) is enforced as a 3-VNF cap on
// loopback chains.
package bess

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/pkt"
	"repro/internal/switches/switchdef"
	"repro/internal/units"
)

// Burst is BESS's batch size.
const Burst = 32

// Cost constants, calibrated to land p2p 64B at ≈ 42 ns/packet.
const (
	taskFixed  = 30 // scheduler dispatch per task run
	qincPerPkt = 31 // QueueInc bookkeeping + stats
	qoutPerPkt = 32 // QueueOut
	jitterFrac = 0.015
)

// Switch is a BESS daemon instance. Runtime rule updates go through
// bessctl by rebuilding the module graph, not by editing a live rule
// table, so the Programmer surface reports ErrNoRuntimeRules.
type Switch struct {
	switchdef.NoRuntimeRules

	// rxScratch is the receive staging array, reused by every task: a
	// task's batch is transmitted before the next task runs.
	rxScratch [Burst]*pkt.Buf

	ports []switchdef.DevPort
	tasks []task // schedulable QueueInc -> QueueOut pipelines, in creation order

	// Forwarded and Dropped count data-plane outcomes.
	Forwarded, Dropped int64
}

// task is one QueueInc(in) -> QueueOut(out) pipeline: the scheduler's
// unit of work.
type task struct {
	in, out switchdef.DevPort
}

var info = switchdef.Info{
	Name:              "bess",
	Display:           "BESS",
	Version:           "haswell",
	SelfContained:     false,
	Paradigm:          "structured",
	ProcessingModel:   "RTC/pipeline",
	VirtualIface:      "vhost-user",
	Reprogrammability: "medium",
	Languages:         "C, Python",
	MainPurpose:       "Programmable NIC",
	BestAt:            "Forwarding between physical NICs",
	Remarks:           "Incompatible with newer versions of QEMU",
	IOMode:            switchdef.PollMode,
	MaxLoopbackVNFs:   3,
	VhostEnqScale:     0.9,
	VhostDeqScale:     0.9,
}

// New returns an empty BESS daemon.
func New(switchdef.Env) *Switch { return &Switch{} }

// AddPort implements switchdef.Switch (the PMDPort/vdev hook).
func (sw *Switch) AddPort(p switchdef.DevPort) int {
	sw.ports = append(sw.ports, p)
	return len(sw.ports) - 1
}

// CrossConnect implements switchdef.Switch with the paper's configuration:
// QueueInc(port=a) -> QueueOut(port=b) and the reverse, as two tasks.
func (sw *Switch) CrossConnect(a, b int) error {
	for _, p := range []int{a, b} {
		if p < 0 || p >= len(sw.ports) {
			return fmt.Errorf("bess: no port %d", p)
		}
	}
	sw.tasks = append(sw.tasks, task{sw.ports[a], sw.ports[b]}, task{sw.ports[b], sw.ports[a]})
	return nil
}

// Poll implements switchdef.Switch: one scheduler round, running every
// task once in creation order. Multi-core runs give each worker its own
// Switch instance (BESS's per-worker schedulers) — see internal/multicore.
func (sw *Switch) Poll(now units.Time, m *cost.Meter) bool {
	did := false
	for _, t := range sw.tasks {
		if sw.run(t, now, m) {
			did = true
		}
	}
	return did
}

// run pulls one batch through a task: QueueInc reads it, QueueOut sends it.
func (sw *Switch) run(t task, now units.Time, m *cost.Meter) bool {
	batch := sw.rxScratch[:t.in.RxBurst(now, m, sw.rxScratch[:])]
	if len(batch) == 0 {
		return false
	}
	frames := pkt.Frames(batch)
	m.ChargeNoisy(taskFixed+units.Cycles(frames)*qincPerPkt, jitterFrac)
	m.ChargeNoisy(units.Cycles(frames)*qoutPerPkt, jitterFrac)
	sent := t.out.TxBurst(now, m, batch)
	sw.Forwarded += int64(sent)
	sw.Dropped += int64(frames - sent)
	return true
}

// NextWork implements cpu.Waiter: an empty scheduler round reads each
// task's input and nothing else, so nothing changes until one has a frame.
func (sw *Switch) NextWork(now units.Time) units.Time {
	next := units.Never
	for _, t := range sw.tasks {
		next = min(next, t.in.NextRx(now))
	}
	return next
}

func init() {
	switchdef.Register(info, func(env switchdef.Env) switchdef.Switch { return New(env) })
}
