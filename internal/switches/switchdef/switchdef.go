// Package switchdef defines the System Under Test abstraction every
// software switch implements, the device-port interface switches drive,
// the design-space taxonomy metadata (the paper's Table 1/2/5), and a
// registry the benchmark harness enumerates.
package switchdef

import (
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/units"
)

// PortMAC is the testbed-wide convention for addressing a switch port by
// destination MAC: traffic whose eventual egress is SUT port i carries
// dl_dst = PortMAC(i). Match/action switches without port-based forwarding
// (t4p4s's l2fwd program) install their table entries against these
// addresses, and the paper's corresponding requirement — "traffic
// generators need to send packets with the corresponding destination MAC
// addresses" — is honoured by the traffic generators.
func PortMAC(i int) pkt.MAC {
	return pkt.MAC{0x02, 0x00, 0x00, 0x00, byte(i >> 8), byte(i)}
}

// PortKind distinguishes the attachment types a switch sees.
type PortKind int

// Port kinds.
const (
	PhysKind  PortKind = iota // physical NIC port
	VhostKind                 // vhost-user virtio device
	PtnetKind                 // netmap passthrough device
)

// String names the kind.
func (k PortKind) String() string {
	switch k {
	case PhysKind:
		return "phys"
	case VhostKind:
		return "vhost-user"
	case PtnetKind:
		return "ptnet"
	default:
		return fmt.Sprintf("PortKind(%d)", int(k))
	}
}

// DevPort is a device a switch data plane drives. A buffer crossing it
// may be a run (pkt.Buf.Run): k identical frames received back to back,
// which a switch prices, classifies and forwards as k frames without
// making k buffers. RxBurst fills out with buffers standing for at most
// len(out) frames in total, hands their ownership to the switch, and
// returns how many buffers it filled. TxBurst takes ownership of every
// buffer passed (frames that cannot be sent are freed and counted by the
// device) and returns the number of frames actually accepted.
type DevPort interface {
	Kind() PortKind
	RxBurst(now units.Time, m *cost.Meter, out []*pkt.Buf) int
	TxBurst(now units.Time, m *cost.Meter, in []*pkt.Buf) int
	// NextRx returns the earliest instant at or after which RxBurst can
	// return a frame, judged from what the device already holds: now (or
	// earlier) when one is waiting, units.Never when nothing is queued or
	// in flight. A switch's cpu.Waiter hint is built from it.
	NextRx(now units.Time) units.Time
}

// EarliestRx returns the earliest NextRx over ports (units.Never for none):
// when a poll over all of them can first receive anything.
func EarliestRx(now units.Time, ports []DevPort) units.Time {
	next := units.Never
	for _, p := range ports {
		next = min(next, p.NextRx(now))
	}
	return next
}

// IOMode is how the switch's core consumes packet I/O.
type IOMode int

// I/O modes.
const (
	PollMode      IOMode = iota // DPDK-style busy waiting
	InterruptMode               // netmap-style sleep + interrupt
)

// Info is the design-space taxonomy record for one switch (Table 1), plus
// the use-case summary (Table 5) and tuning notes (Table 2).
type Info struct {
	Name    string // registry key, e.g. "vpp"
	Display string // e.g. "VPP"
	Version string // version or commit the model follows

	SelfContained     bool   // vs. modular architecture
	Paradigm          string // "structured" or "match/action"
	ProcessingModel   string // "RTC", "pipeline", or "RTC/pipeline"
	VirtualIface      string // "vhost-user" or "ptnet"
	Reprogrammability string // "low", "medium", "high"
	Languages         string
	MainPurpose       string

	BestAt  string // Table 5
	Remarks string // Table 5
	Tuning  string // Table 2 ("" if none)

	IOMode IOMode
	// RuntimeRules reports whether the data plane accepts Programmer
	// Install/Revoke while running. False means the switch's Programmer
	// returns ErrNoRuntimeRules (VALE, Snabb, BESS) — distinct from the
	// Reprogrammability taxonomy string, which quotes the paper's coarse
	// development-effort ranking.
	RuntimeRules bool
	// MaxLoopbackVNFs caps loopback chain length (0 = unlimited). BESS's
	// QEMU incompatibility caps it at 3 (paper §5.2 footnote 5).
	MaxLoopbackVNFs int
	// VhostEnqScale and VhostDeqScale scale the virtio crossing costs per
	// direction (enqueue = host→guest delivery) for switches that price
	// vhost differently from DPDK's: Snabb's own backend, BESS's
	// datapath. 0 means 1.0.
	VhostEnqScale, VhostDeqScale float64
	// RxRingOverride, when non-zero, resizes the NIC descriptor rings for
	// this switch (FastClick's Table 2 tuning uses 4096).
	RxRingOverride int
}

// Switch is a System Under Test: a software switch data plane that runs on
// one simulated core. Its taxonomy record is the Info it was registered
// with (Lookup).
type Switch interface {
	// AddPort attaches a device and returns its port index.
	AddPort(p DevPort) int
	// CrossConnect installs bidirectional L2 forwarding between two
	// attached ports, through the switch's native configuration
	// mechanism (flow rules, graph wiring, table entries, ...). For
	// reprogrammable switches it is a canned rule program over the
	// Programmer surface (CrossConnectRules / CrossConnectMACRules).
	CrossConnect(a, b int) error
	// Poll runs one scheduling quantum on the SUT core, charging
	// consumed cycles to m and reporting whether any work was done.
	Poll(now units.Time, m *cost.Meter) bool
	// Programmer is the unified runtime rule-management surface.
	// Switches whose data plane cannot take runtime updates embed
	// NoRuntimeRules (Install/Revoke return ErrNoRuntimeRules).
	Programmer
}

// Env is what a switch factory needs from the testbed.
type Env struct {
	Model *cost.Model
	RNG   *sim.RNG
	Pool  *pkt.Pool // host mbuf pool
}

// Factory builds a fresh switch instance.
type Factory func(Env) Switch

type registration struct {
	info    Info
	factory Factory
}

var registry = map[string]registration{}

// Register records a switch implementation under info.Name. It panics on
// duplicates (registration happens in package init).
func Register(info Info, f Factory) {
	if info.Name == "" {
		panic("switchdef: empty name")
	}
	if _, dup := registry[info.Name]; dup {
		panic("switchdef: duplicate registration: " + info.Name)
	}
	registry[info.Name] = registration{info: info, factory: f}
}

// Names returns the registered switch names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the taxonomy record for a registered switch.
func Lookup(name string) (Info, error) {
	r, ok := registry[name]
	if !ok {
		return Info{}, fmt.Errorf("switchdef: unknown switch %q (have %v)", name, Names())
	}
	return r.info, nil
}

// New instantiates a registered switch.
func New(name string, env Env) (Switch, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("switchdef: unknown switch %q (have %v)", name, Names())
	}
	return r.factory(env), nil
}
