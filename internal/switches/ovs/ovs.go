// Package ovs models Open vSwitch with the DPDK datapath (OvS-DPDK 2.11):
// a self-contained match/action SDN switch.
//
// The data plane implements OvS's real three-tier lookup:
//
//  1. EMC — the exact-match cache, a bounded hash table from the full
//     packet key to the matched rule;
//  2. the megaflow cache (dpcls) — tuple-space search: one hash table per
//     in-use wildcard mask, probed in order of decreasing max priority;
//  3. the slow path — the full OpenFlow table, after which megaflow and
//     EMC entries are installed.
//
// Rules arrive as typed switchdef.Rule values through Install (program.go),
// lowered into the OpenFlow table the three tiers cache.
// The paper's p2p result (8.05 Gbps at 64B) reflects the match/action
// pipeline tax even when the EMC hits on every packet of a single flow.
package ovs

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cost"
	"repro/internal/flowtab"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/switches/switchdef"
	"repro/internal/units"
)

// Burst is the DPDK RX burst size.
const Burst = 32

// EMCCapacity matches OvS's per-PMD exact match cache size.
const EMCCapacity = 8192

// Cost constants, calibrated to land p2p 64B at ≈ 83 ns/packet (Fig. 4a:
// 8.05 Gbps unidirectional).
const (
	parsePerPkt    = 30  // miniflow extraction
	emcHitPerPkt   = 40  // beyond the hash probe itself
	applyPerPkt    = 26  // action execution + batching to output
	megaflowExtra  = 90  // per megaflow-tier probe (beyond hash cost)
	slowPathCost   = 900 // full classifier walk + cache installs
	perPktOverhead = 50  // dp_netdev per-packet bookkeeping
	jitterFrac     = 0.04

	// Revalidation: a periodic bookkeeping stall (flow stats, EMC sweep).
	revalInterval = 10 * units.Millisecond
	revalStall    = 25 * units.Microsecond
)

// vhostMod models OvS's instability when vhost-user ports are in play
// (the paper's loopback 0.99·R⁺ rows): sustained phases where per-packet
// cost degrades faster than the post-phase headroom can drain the backlog.
var vhostMod = cost.Modulation{
	HighFactor: 1.15, HighDur: 1200 * units.Microsecond,
	LowFactor: 0.97, LowDur: 800 * units.Microsecond,
}

type maskGroup struct {
	mask    mask
	maxPrio int
	flows   map[packedKey]*Rule
}

// megaEntry is one megaflow-cache decision plus the mask that produced it
// (the old separate megaOf map, folded in so a probe is one table access).
type megaEntry struct {
	rule *Rule
	mk   mask
}

func keyHash(k *packedKey) uint64 { return flowtab.HashBytes(k[:]) }

// port is one attached device with what OvS keeps per port: the buffers
// staged for it this poll, and the flow key of the last frame it received
// (see flowKey).
type port struct {
	dev   switchdef.DevPort
	stage switchdef.Stage
	// key and hash are the packed flow key and keyHash; tmpl is the ID
	// of the template they were parsed from, or 0 if that frame had none
	// (IDs are nonzero).
	tmpl uint64
	key  packedKey
	hash uint64
}

// Switch is an OvS-DPDK instance.
type Switch struct {
	switchdef.Counters

	// rxScratch is the receive staging array, reused across polls: a
	// stack array handed through the DevPort interface escapes, which
	// costs one heap allocation per poll.
	rxScratch [Burst]*pkt.Buf

	env   switchdef.Env
	ports []port
	rng   *sim.RNG

	rules  []*Rule
	groups []*maskGroup // tuple-space, sorted by maxPrio desc
	byMask map[mask]*maskGroup

	// emc is the exact-match cache: set-associative, fixed capacity,
	// deterministic clock-hand eviction (the map it replaced evicted by
	// randomized iteration, making overflow workloads run-dependent).
	emc *flowtab.Cache[packedKey, *Rule]
	// The megaflow cache. Entries are installed by the slow path under
	// an "unwildcarded" mask — the union of every subtable mask that
	// could have decided the packet — so cached decisions can never
	// shadow a higher-priority rule (OvS's correctness invariant).
	mega      *flowtab.Map[packedKey, megaEntry]
	megaMasks []mask // distinct installed megaflow masks
	nextRev   units.Time
	hasVhost  bool

	// Per-tier stats; Counters.EMCEvictions counts clock-hand
	// replacements of live EMC entries.
	EMCHits, MegaHits, SlowHits, NoMatch int64
}

var info = switchdef.Info{
	Name:              "ovs",
	Display:           "OvS-DPDK",
	Version:           "2.11.90",
	SelfContained:     true,
	Paradigm:          "match/action",
	ProcessingModel:   "RTC",
	VirtualIface:      "vhost-user",
	Reprogrammability: "medium",
	Languages:         "C",
	MainPurpose:       "SDN switch",
	BestAt:            "Stateless SDN deployments",
	Remarks:           "Supports OpenFlow protocol",
	IOMode:            switchdef.PollMode,
	RuntimeRules:      true,
}

// New returns an OvS instance with an empty flow table.
func New(env switchdef.Env) *Switch {
	return &Switch{
		env:    env,
		rng:    env.RNG.Derive("ovs"),
		byMask: map[mask]*maskGroup{},
		emc:    flowtab.NewCache[packedKey, *Rule](EMCCapacity),
		mega:   flowtab.NewMap[packedKey, megaEntry](64),
	}
}

// AddPort implements switchdef.Switch.
func (sw *Switch) AddPort(p switchdef.DevPort) int {
	sw.ports = append(sw.ports, port{dev: p})
	if p.Kind() == switchdef.VhostKind {
		sw.hasVhost = true
	}
	return len(sw.ports) - 1
}

func (sw *Switch) invalidateCaches() {
	sw.emc.Reset()
	sw.mega.Reset()
	sw.megaMasks = nil
}

// rebuildGroups re-derives the tuple-space subtables from sw.rules: one
// group per distinct mask in first-seen rule order, stably sorted by
// maxPrio. Groups persist in byMask across rebuilds — each is cleared and
// refilled, and dropped once no rule has its mask — so a rule operation
// allocates no maps.
func (sw *Switch) rebuildGroups() {
	for _, g := range sw.byMask {
		clear(g.flows)
	}
	sw.groups = sw.groups[:0]
	for _, r := range sw.rules {
		g, ok := sw.byMask[r.Mask]
		if !ok {
			g = &maskGroup{mask: r.Mask, flows: map[packedKey]*Rule{}}
			sw.byMask[r.Mask] = g
		}
		if len(g.flows) == 0 { // first rule with this mask
			g.maxPrio = r.Priority
			sw.groups = append(sw.groups, g)
		}
		if r.Priority > g.maxPrio {
			g.maxPrio = r.Priority
		}
		// Highest priority wins within identical masked matches.
		if old, dup := g.flows[r.Match]; !dup || r.beats(old) {
			g.flows[r.Match] = r
		}
	}
	for mk, g := range sw.byMask {
		if len(g.flows) == 0 {
			delete(sw.byMask, mk)
		}
	}
	slices.SortStableFunc(sw.groups, func(a, b *maskGroup) int { return cmp.Compare(b.maxPrio, a.maxPrio) })
}

// CrossConnect implements switchdef.Switch as the canned rule program of
// two port-based rules over the Programmer surface — the typed equivalent
// of what the paper's appendix installs via ovs-ofctl.
func (sw *Switch) CrossConnect(a, b int) error {
	if a < 0 || a >= len(sw.ports) || b < 0 || b >= len(sw.ports) {
		return fmt.Errorf("ovs: bad ports %d,%d", a, b)
	}
	for _, r := range switchdef.CrossConnectRules(a, b) {
		if err := sw.Install(r); err != nil {
			return err
		}
	}
	return nil
}

// classify finds the rule for a packed key *full whose keyHash is h,
// exercising EMC → megaflow → slow path, charging lookup costs as it goes.
// Poll calls it for every frame, so every charge and counter comes from
// here.
func (sw *Switch) classify(m *cost.Meter, full *packedKey, h uint64) *Rule {
	m.Charge(m.Model.HashLookup)
	if r, ok := sw.emc.Get(h, *full); ok {
		sw.EMCHits++
		m.Charge(emcHitPerPkt)
		r.Hits++
		return r
	}
	// Megaflow (tuple space) tier: probe each installed megaflow mask.
	for _, mk := range sw.megaMasks {
		masked := mk.apply(*full)
		m.Charge(m.Model.HashLookup + megaflowExtra)
		if e, ok := sw.mega.Get(keyHash(&masked), masked); ok && e.mk == mk {
			sw.MegaHits++
			e.rule.Hits++
			sw.installEMC(*full, h, e.rule)
			return e.rule
		}
	}
	// Slow path: full tuple-space search over the OpenFlow table.
	m.Charge(slowPathCost)
	var best *Rule
	for _, g := range sw.groups {
		masked := g.mask.apply(*full)
		if r, ok := g.flows[masked]; ok && r.beats(best) {
			best = r
		}
	}
	if best == nil {
		sw.NoMatch++
		return nil
	}
	sw.SlowHits++
	best.Hits++
	sw.installMegaflow(*full, best)
	sw.installEMC(*full, h, best)
	return best
}

// installMegaflow caches the decision under the unwildcarded mask: the
// union of every subtable mask whose priority range could have decided
// this packet. Any packet matching the resulting entry is guaranteed to
// resolve to the same rule in the full table.
func (sw *Switch) installMegaflow(full packedKey, best *Rule) {
	var union mask
	for _, g := range sw.groups {
		if g.maxPrio < best.Priority {
			continue
		}
		for i := range union {
			union[i] |= g.mask[i]
		}
	}
	masked := union.apply(full)
	known := false
	for _, mk := range sw.megaMasks {
		if mk == union {
			known = true
			break
		}
	}
	if !known {
		sw.megaMasks = append(sw.megaMasks, union)
	}
	sw.mega.Put(keyHash(&masked), masked, megaEntry{rule: best, mk: union})
}

// installEMC caches r under the packed key full, whose keyHash is h.
func (sw *Switch) installEMC(full packedKey, h uint64, r *Rule) {
	if sw.emc.Put(h, full, r) { // clock-hand eviction of a live entry
		sw.EMCEvictions++
	}
}

// Poll implements switchdef.Switch: one PMD thread iteration over every
// attached port. Multi-core runs give each core its own Switch instance
// (private EMC/megaflow/table state) over per-core port views — see
// internal/multicore.
func (sw *Switch) Poll(now units.Time, m *cost.Meter) bool {
	if sw.nextRev == 0 {
		sw.nextRev = now + revalInterval
	}
	if now >= sw.nextRev {
		m.Stall(revalStall)
		sw.nextRev = now + revalInterval
	}
	// The modulation factor depends only on now, which is constant for
	// the whole poll — hoisted out of the per-burst loop.
	factor := 1.0
	if sw.hasVhost {
		factor = vhostMod.Factor(now)
	}
	perPkt := units.Cycles(float64(parsePerPkt+perPktOverhead) * factor)
	burst := &sw.rxScratch
	did := false
	for i := range sw.ports {
		n := sw.ports[i].dev.RxBurst(now, m, burst[:])
		if n == 0 {
			continue
		}
		did = true
		frames := 0
		for _, b := range burst[:n] {
			frames += b.Run()
			// Each frame of a run is classified in turn — the caches it
			// fills and the counters it bumps are per frame — and, the
			// frames being identical, all share one key and meet the
			// first one's rule.
			full, h := sw.flowKey(b, i)
			var rule *Rule
			for k := b.Run(); k > 0; k-- {
				rule = sw.classify(m, full, h)
			}
			if rule == nil {
				sw.Discard(b)
				continue
			}
			sw.apply(now, m, b, rule)
		}
		// One noisy draw per frame, batched into a single charge; the
		// classify path above draws nothing, so the RNG stream is
		// consumed exactly as the per-frame order did.
		m.ChargeNoisyBatch(perPkt, jitterFrac, frames)
	}
	for i := range sw.ports {
		p := &sw.ports[i]
		if len(p.stage.Bufs) == 0 {
			continue
		}
		did = true
		p.stage.Flush(now, m, p.dev, &sw.Counters)
	}
	return did
}

// flowKey returns the packed flow key of the frames b holds, received on
// port i, and its keyHash. The port keeps the last key it parsed, and a
// template's frames have identical headers (a probe differs only in its
// payload stamp), so a buffer on the template that key came from reuses
// it; any other buffer (a new template, no template, or one resized away
// from its template's length) is parsed afresh. The
// key is returned in place: copied through the stack on every frame, the
// 31-byte array stalls on store forwarding. Reuse saves only host-side
// parsing (ParseIPv4 verifies a checksum per frame): classify still runs
// for every frame, so it cannot move a simulated charge or counter.
func (sw *Switch) flowKey(b *pkt.Buf, i int) (*packedKey, uint64) {
	p := &sw.ports[i]
	var id uint64
	if t := b.Template(); t != nil && b.Len() == t.Len() {
		id = t.ID()
	}
	if id == 0 || id != p.tmpl {
		key := extractKey(b, i)
		p.tmpl, p.key = id, key.pack()
		p.hash = keyHash(&p.key)
	}
	return &p.key, p.hash
}

// apply executes r's actions on every frame of b.
func (sw *Switch) apply(now units.Time, m *cost.Meter, b *pkt.Buf, r *Rule) {
	k := b.Run()
	m.Charge(units.Cycles(k) * applyPerPkt)
	out := -1
	for _, a := range r.Actions {
		switch a.Kind {
		case ActDrop:
			sw.Discard(b)
			return
		case ActOutput:
			out = a.Port
		case ActModDlDst:
			pkt.SetEthDst(b.Bytes(), a.MAC)
		case ActModDlSrc:
			pkt.SetEthSrc(b.Bytes(), a.MAC)
		}
	}
	if out < 0 || out >= len(sw.ports) {
		sw.Discard(b)
		return
	}
	sw.ports[out].stage.Add(now, b)
}

// Rules returns the OpenFlow table — the only record of the installed
// rules — in install order (a replaced rule keeps its place).
func (sw *Switch) Rules() []*Rule { return sw.rules }

// NextWork implements cpu.Waiter: an empty PMD iteration charges the
// drivers' fixed receive cost (the vhost modulation scales per-frame work
// only) until a port has a frame or the revalidation stall falls due.
func (sw *Switch) NextWork(now units.Time) units.Time {
	next := sw.nextRev
	for i := range sw.ports {
		next = min(next, sw.ports[i].dev.NextRx(now))
	}
	return next
}

func init() {
	switchdef.Register(info, func(env switchdef.Env) switchdef.Switch { return New(env) })
}
