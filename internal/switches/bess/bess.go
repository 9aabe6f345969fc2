// Package bess models the Berkeley Extensible Software Switch (BESS,
// Haswell build): a modular switch whose daemon schedules "tasks" (source
// modules) under a weighted scheduler and pushes batches through a
// module/gate pipeline.
//
// The paper's configurations hook ports with PMDPort and link
// QueueInc → QueueOut modules; this package exposes the same two modules
// and builder vocabulary. BESS's p2p dominance (16 Gbps bidirectional at
// 64B) comes from how little work its modules do — essentially statistics
// collection.
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

// Module is a BESS pipeline module.
type Module interface {
	Name() string
	// ProcessBatch consumes the batch a module's input gate receives.
	ProcessBatch(sw *Switch, now units.Time, m *cost.Meter, batch []*pkt.Buf)
	setOGate(dst Module) error
}

type baseModule struct {
	name  string
	ogate Module
}

func (b *baseModule) Name() string { return b.name }
func (b *baseModule) setOGate(dst Module) error {
	if b.ogate != nil {
		return fmt.Errorf("bess: %s ogate already connected", b.name)
	}
	b.ogate = dst
	return nil
}

// Switch is a BESS daemon instance. Runtime rule updates go through
// bessctl by rebuilding the module graph, not by editing a live rule
// table, so the Programmer surface reports ErrNoRuntimeRules.
type Switch struct {
	switchdef.NoRuntimeRules

	ports []switchdef.DevPort

	modules map[string]Module
	tasks   []*QueueInc // schedulable sources, in WRR expansion order
	wheel   []*QueueInc // weighted round-robin expansion
	wheelAt int

	// Forwarded and Dropped count data-plane outcomes.
	Forwarded, Dropped int64
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
	VhostCostScale:    0.9,
}

// New returns an empty BESS daemon.
func New(switchdef.Env) *Switch {
	return &Switch{modules: map[string]Module{}}
}

// Info implements switchdef.Switch.
func (sw *Switch) Info() switchdef.Info { return info }

// AddPort implements switchdef.Switch (the PMDPort/vdev hook).
func (sw *Switch) AddPort(p switchdef.DevPort) int {
	sw.ports = append(sw.ports, p)
	return len(sw.ports) - 1
}

func (sw *Switch) register(m Module) (Module, error) {
	if _, dup := sw.modules[m.Name()]; dup {
		return nil, fmt.Errorf("bess: duplicate module %q", m.Name())
	}
	sw.modules[m.Name()] = m
	return m, nil
}

// NewQueueInc creates a schedulable input task over a port, with a WRR
// weight (≥1) in the traffic-class scheduler.
func (sw *Switch) NewQueueInc(name string, port, weight int) (*QueueInc, error) {
	if port < 0 || port >= len(sw.ports) {
		return nil, fmt.Errorf("bess: no port %d", port)
	}
	if weight < 1 {
		weight = 1
	}
	q := &QueueInc{baseModule: baseModule{name: name}, dev: sw.ports[port], weight: weight}
	if _, err := sw.register(q); err != nil {
		return nil, err
	}
	sw.tasks = append(sw.tasks, q)
	sw.rebuildWheel()
	return q, nil
}

// NewQueueOut creates an output module over a port.
func (sw *Switch) NewQueueOut(name string, port int) (*QueueOut, error) {
	if port < 0 || port >= len(sw.ports) {
		return nil, fmt.Errorf("bess: no port %d", port)
	}
	q := &QueueOut{baseModule: baseModule{name: name}, dev: sw.ports[port]}
	if _, err := sw.register(q); err != nil {
		return nil, err
	}
	return q, nil
}

// Connect links src's output gate to dst (the builder's "->").
func (sw *Switch) Connect(src, dst Module) error { return src.setOGate(dst) }

func (sw *Switch) rebuildWheel() {
	sw.wheel = sw.wheel[:0]
	for _, t := range sw.tasks {
		for i := 0; i < t.weight; i++ {
			sw.wheel = append(sw.wheel, t)
		}
	}
	sw.wheelAt = 0
}

// CrossConnect implements switchdef.Switch with the paper's configuration:
// QueueInc(port=a) -> QueueOut(port=b) and the reverse.
func (sw *Switch) CrossConnect(a, b int) error {
	n := len(sw.modules)
	ia, err := sw.NewQueueInc(fmt.Sprintf("in%d_%d", a, n), a, 1)
	if err != nil {
		return err
	}
	oa, err := sw.NewQueueOut(fmt.Sprintf("out%d_%d", b, n), b)
	if err != nil {
		return err
	}
	if err := sw.Connect(ia, oa); err != nil {
		return err
	}
	ib, err := sw.NewQueueInc(fmt.Sprintf("in%d_%d", b, n+2), b, 1)
	if err != nil {
		return err
	}
	ob, err := sw.NewQueueOut(fmt.Sprintf("out%d_%d", a, n+2), a)
	if err != nil {
		return err
	}
	return sw.Connect(ib, ob)
}

// Poll implements switchdef.Switch: one full turn of the scheduler wheel.
// Multi-core runs give each worker its own Switch instance (BESS's
// per-worker scheduler wheels) — see internal/multicore.
func (sw *Switch) Poll(now units.Time, m *cost.Meter) bool {
	did := false
	for range sw.wheel {
		t := sw.wheel[sw.wheelAt]
		sw.wheelAt = (sw.wheelAt + 1) % len(sw.wheel)
		if t.run(sw, now, m) {
			did = true
		}
	}
	return did
}

// QueueInc pulls batches from a port; it is the schedulable task unit.
type QueueInc struct {
	rxScratch [Burst]*pkt.Buf // receive staging, reused across polls

	baseModule
	dev    switchdef.DevPort
	weight int

	Packets int64
}

// ProcessBatch implements Module (sources do not receive).
func (q *QueueInc) ProcessBatch(sw *Switch, now units.Time, m *cost.Meter, batch []*pkt.Buf) {
	panic("bess: QueueInc cannot receive")
}

func (q *QueueInc) run(sw *Switch, now units.Time, m *cost.Meter) bool {
	burst := &q.rxScratch
	n := q.dev.RxBurst(now, m, burst[:])
	if n == 0 {
		return false
	}
	m.ChargeNoisy(taskFixed+units.Cycles(n)*qincPerPkt, jitterFrac)
	q.Packets += int64(n)
	// Hand the RX scratch slice straight down the pipeline: modules
	// consume batches synchronously and none retains its input slice, so
	// the per-run batch allocation the copy used to pay is gone.
	if q.ogate == nil {
		for _, b := range burst[:n] {
			b.Free()
		}
		sw.Dropped += int64(n)
		return true
	}
	q.ogate.ProcessBatch(sw, now, m, burst[:n])
	return true
}

// QueueOut transmits batches on a port.
type QueueOut struct {
	baseModule
	dev switchdef.DevPort

	Packets int64
}

// ProcessBatch implements Module.
func (q *QueueOut) ProcessBatch(sw *Switch, now units.Time, m *cost.Meter, batch []*pkt.Buf) {
	m.ChargeNoisy(units.Cycles(len(batch))*qoutPerPkt, jitterFrac)
	sent := q.dev.TxBurst(now, m, batch)
	q.Packets += int64(sent)
	sw.Forwarded += int64(sent)
	sw.Dropped += int64(len(batch) - sent)
}

func init() {
	switchdef.Register(info, func(env switchdef.Env) switchdef.Switch { return New(env) })
}
