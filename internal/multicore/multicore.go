// Package multicore turns a single-core switch data plane into a
// multi-core one — the paper's §6 "multi-core solutions" future work,
// following the journal extension's methodology of scaling each switch
// with its native worker model.
//
// A Fleet runs one private switch instance per worker core and takes the
// testbed's wiring and rule programming for all of them; each core's poll
// loop is one of its Polls. Per-core instances are the load-bearing
// design decision: every core owns its own flow caches, MAC tables,
// match/action state, and vector scratch (OvS's per-PMD EMC/megaflow
// caches, VPP's per-worker graph runtime, FastClick's per-thread element
// state, BESS's per-worker task scheduler), so a flow that migrates
// across cores re-misses — exactly as on real hardware.
//
// Two dispatch modes distribute work:
//
//   - RSS (ModeRSS): receive-side scaling. Every receive queue is owned
//     by exactly one core, whose instance polls it; all cores can
//     transmit to any port. PolicyRoundRobin statically assigns queues
//     to cores in declaration order (the classic DPDK port/queue →
//     lcore map); PolicyFlowHash models hardware RSS, spreading each
//     physical port over one queue per core by flow hash, which is the
//     only way a single port scales past one core.
//
//   - RTC pipeline (ModeRTC): the run-to-completion path is split into
//     pipeline stages chained across cores with SPSC handoff rings —
//     receive/steer, process, transmit. Every ring crossing charges the
//     calibrated handoff taxes from internal/cost.
//
// Cores map onto sockets via cost.NUMA; devices and packet memory are
// homed on socket 0, and any core on a remote socket pays the remote
// touch tax on device I/O and cross-socket ring pops. Single-core runs
// never construct a Fleet, so none of this affects the calibrated
// single-core model.
package multicore

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/pkt"
	"repro/internal/switches/switchdef"
	"repro/internal/units"
)

// Dispatch modes.
const (
	ModeRSS = "rss"
	ModeRTC = "rtc"
)

// RSS queue-assignment policies.
const (
	PolicyRoundRobin = "roundrobin"
	PolicyFlowHash   = "flowhash"
)

// scratchLen sizes the fleet's reusable burst buffers (the DPDK burst).
const scratchLen = 32

// Options configures a Fleet.
type Options struct {
	// Cores is the worker core count (must be > 1).
	Cores int
	// Dispatch is ModeRSS or ModeRTC.
	Dispatch string
	// Policy is the RSS queue-assignment policy (ModeRSS only).
	Policy string
	// NUMA maps cores onto sockets for remote-access penalties.
	NUMA cost.NUMA
	// QueueCap bounds every demux and handoff ring (default 512).
	QueueCap int
	// NewInstance builds the private switch instance for one core. Each
	// instance must be backed by its own state (callers derive a
	// distinct RNG per instance).
	NewInstance func(core int) (switchdef.Switch, error)
}

// CorePoll is one core's poll loop, ready to be mounted on a cpu.PollCore.
type CorePoll struct {
	Name string
	Fn   func(now units.Time, m *cost.Meter) bool
}

// Fleet runs one switch instance per worker core: the testbed attaches
// ports, installs cross-connects and programs rules once, and the fleet
// fans each out to every instance.
type Fleet struct {
	opt   Options
	insts []switchdef.Switch
	ports []switchdef.DevPort

	// rxOwner notes, per port, which core owns its receive side under
	// RSS (-1 = demuxed across all cores). Unused under RTC.
	rxOwner []int
	// srcOrdinal counts the ports handed whole to one core, in
	// declaration order (the DPDK port → lcore map is filled round-robin
	// in this order).
	srcOrdinal int
	// guestOrdinal counts guest interfaces for flow-hash guest placement.
	guestOrdinal int

	demuxes []*demux
	rtc     *rtcState

	scratch [scratchLen]*pkt.Buf
	counts  switchdef.Counters // Counts' sum
}

// New builds a fleet. Mount its Polls on one cpu.PollCore each after
// wiring.
func New(opt Options) (*Fleet, error) {
	if opt.Cores < 2 {
		return nil, fmt.Errorf("multicore: need at least 2 cores, got %d", opt.Cores)
	}
	if opt.QueueCap <= 0 {
		opt.QueueCap = 512
	}
	switch opt.Dispatch {
	case ModeRSS:
		switch opt.Policy {
		case PolicyRoundRobin, PolicyFlowHash:
		default:
			return nil, fmt.Errorf("multicore: unknown rss policy %q", opt.Policy)
		}
	case ModeRTC:
	default:
		return nil, fmt.Errorf("multicore: unknown dispatch mode %q", opt.Dispatch)
	}
	f := &Fleet{opt: opt}
	workers := opt.Cores
	if opt.Dispatch == ModeRTC {
		// Dedicated receive/steer and transmit cores bracket the
		// processing stages; with only two cores the process stage
		// polls the devices itself.
		workers = opt.Cores - 2
		if workers < 1 {
			workers = 1
		}
		f.rtc = newRTCState(opt)
	}
	for k := 0; k < workers; k++ {
		inst, err := opt.NewInstance(k)
		if err != nil {
			return nil, err
		}
		f.insts = append(f.insts, inst)
	}
	return f, nil
}

// AddPort registers the device with every instance at the same index,
// each instance seeing the view its core's role grants (owned queue,
// transmit-only passthrough, or handoff ring).
func (f *Fleet) AddPort(p switchdef.DevPort) int {
	idx := len(f.ports)
	f.ports = append(f.ports, p)
	var views []switchdef.DevPort
	if f.opt.Dispatch == ModeRTC {
		views = f.rtcViews(idx, p)
	} else {
		views = f.rssViews(idx, p)
	}
	for k, inst := range f.insts {
		if got := inst.AddPort(views[k]); got != idx {
			panic(fmt.Sprintf("multicore: instance %d assigned port %d, want %d", k, got, idx))
		}
	}
	return idx
}

// CrossConnect installs forwarding state in every instance, since any
// core may see any flow.
func (f *Fleet) CrossConnect(a, b int) error {
	for _, inst := range f.insts {
		if err := inst.CrossConnect(a, b); err != nil {
			return err
		}
	}
	return nil
}

// Install implements switchdef.Programmer: a rule broadcast. The control
// plane programs every per-core shard (any core may see any flow), and
// each shard re-misses its own caches independently — the same
// amplification a real multi-queue deployment pays on a table update.
func (f *Fleet) Install(r switchdef.Rule) error {
	for _, inst := range f.insts {
		if err := inst.Install(r); err != nil {
			return err
		}
	}
	return nil
}

// Revoke implements switchdef.Programmer, broadcast like Install.
func (f *Fleet) Revoke(r switchdef.Rule) error {
	for _, inst := range f.insts {
		if err := inst.Revoke(r); err != nil {
			return err
		}
	}
	return nil
}

// Counts returns the sum of every instance's data-plane ledger, refreshed
// at each call.
func (f *Fleet) Counts() *switchdef.Counters {
	f.counts = switchdef.Counters{}
	for _, inst := range f.insts {
		c := inst.Counts()
		f.counts.Forwarded += c.Forwarded
		f.counts.Dropped += c.Dropped
		f.counts.EMCEvictions += c.EMCEvictions
	}
	return &f.counts
}

// Polls returns one poll loop per effective core. Under RSS, cores that
// own no receive queue are omitted (they would only burn idle cycles);
// under RTC every pipeline stage polls.
func (f *Fleet) Polls() []CorePoll {
	if f.opt.Dispatch == ModeRTC {
		var polls []CorePoll
		if f.opt.Cores >= 3 {
			polls = append(polls, CorePoll{Name: "sut-rx", Fn: f.rtcRxPoll})
		}
		for k, inst := range f.insts {
			polls = append(polls, CorePoll{Name: fmt.Sprintf("sut-proc%d", k), Fn: inst.Poll})
		}
		polls = append(polls, CorePoll{Name: "sut-tx", Fn: f.rtcTxPoll})
		return polls
	}
	active := f.activeCores()
	polls := make([]CorePoll, 0, len(active))
	for _, k := range active {
		polls = append(polls, CorePoll{Name: fmt.Sprintf("sut-core%d", k), Fn: f.insts[k].Poll})
	}
	return polls
}

// activeCores lists the RSS cores owning at least one receive queue.
func (f *Fleet) activeCores() []int {
	owned := make([]bool, f.opt.Cores)
	for _, o := range f.rxOwner {
		if o >= 0 {
			owned[o] = true
		}
	}
	for _, d := range f.demuxes {
		for k := range d.queues {
			owned[k] = true // queue k belongs to core k
		}
	}
	var active []int
	for k, ok := range owned {
		if ok {
			active = append(active, k)
		}
	}
	return active
}

// Drops counts frames lost in the fleet's own queues: demux queue
// overflows and full handoff rings.
func (f *Fleet) Drops() int64 {
	var n int64
	for _, d := range f.demuxes {
		for _, q := range d.queues {
			n += q.Drops
		}
	}
	if f.rtc != nil {
		n += f.rtc.drops()
	}
	return n
}
