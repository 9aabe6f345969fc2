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

// memoKey identifies one classification decision: frames sharing a
// template are byte-identical, so (template, in_port) determines the full
// flow key and therefore the entire lookup outcome.
type memoKey struct {
	tmpl uint64
	port int32
}

// Memo entry kinds: what the per-frame reference path would do for the
// next frame of this (template, port), recorded right after classify ran.
const (
	memoEMCHit  uint8 = iota + 1 // EMC probe hits
	memoNoMatch                  // full walk misses; frame dropped
)

// memoEntry is a recorded charge script: the exact simulated cycles the
// reference classify path charges for a repeat frame, plus the counter
// side effects to replay. Valid only while gen matches the switch's
// cacheGen — any table or cache mutation invalidates every memo.
type memoEntry struct {
	gen    uint64
	cycles units.Cycles
	kind   uint8
	rule   *Rule
}

func memoHash(k memoKey) uint64 {
	return flowtab.HashUint64(k.tmpl ^ uint64(uint32(k.port))<<32)
}

func keyHash(k *packedKey) uint64 { return flowtab.HashBytes(k[:]) }

// Switch is an OvS-DPDK instance.
type Switch struct {
	// rxScratch is the receive staging array, reused across polls: a
	// stack array handed through the DevPort interface escapes, which
	// costs one heap allocation per poll.
	rxScratch [Burst]*pkt.Buf

	env   switchdef.Env
	ports []switchdef.DevPort
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

	// memo caches classification decisions by (template, in_port); see
	// memoEntry. cacheGen invalidates it wholesale on any mutation of the
	// rule table, megaflow cache, or EMC membership.
	memo     *flowtab.Map[memoKey, memoEntry]
	cacheGen uint64

	txStage  [][]*pkt.Buf
	txFrames []int // the frames each txStage holds

	// Stats.
	EMCHits, MegaHits, SlowHits, NoMatch int64
	Forwarded, Dropped                   int64
	// EMCEvictions counts clock-hand replacements of live EMC entries.
	EMCEvictions int64
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
		memo:   flowtab.NewMap[memoKey, memoEntry](16),
	}
}

// AddPort implements switchdef.Switch.
func (sw *Switch) AddPort(p switchdef.DevPort) int {
	sw.ports = append(sw.ports, p)
	sw.txStage = append(sw.txStage, nil)
	sw.txFrames = append(sw.txFrames, 0)
	if p.Kind() == switchdef.VhostKind {
		sw.hasVhost = true
	}
	return len(sw.ports) - 1
}

func (sw *Switch) invalidateCaches() {
	sw.emc.Reset()
	sw.mega.Reset()
	sw.megaMasks = nil
	sw.cacheGen++
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

// classify finds the rule for a packed key full whose keyHash is h,
// exercising EMC → megaflow → slow path, charging lookup costs as it goes.
// This is the per-frame reference path; the memoized fast path (Poll) must
// replay exactly the charges and counter increments a repeat frame would
// collect here.
func (sw *Switch) classify(now units.Time, m *cost.Meter, full packedKey, h uint64) *Rule {
	m.Charge(m.Model.HashLookup)
	if r, ok := sw.emc.Get(h, full); ok {
		sw.EMCHits++
		m.Charge(emcHitPerPkt)
		r.Hits++
		return r
	}
	// Megaflow (tuple space) tier: probe each installed megaflow mask.
	for _, mk := range sw.megaMasks {
		masked := mk.apply(full)
		m.Charge(m.Model.HashLookup + megaflowExtra)
		if e, ok := sw.mega.Get(keyHash(&masked), masked); ok && e.mk == mk {
			sw.MegaHits++
			e.rule.Hits++
			sw.installEMC(full, h, e.rule)
			return e.rule
		}
	}
	// Slow path: full tuple-space search over the OpenFlow table.
	m.Charge(slowPathCost)
	var best *Rule
	for _, g := range sw.groups {
		masked := g.mask.apply(full)
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
	sw.installMegaflow(full, best)
	sw.installEMC(full, h, best)
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
	// A new megaflow entry (or mask) can change a later frame's probe
	// sequence or outcome — every recorded memo is stale.
	sw.cacheGen++
}

// installEMC caches r under the packed key full, whose keyHash is h.
func (sw *Switch) installEMC(full packedKey, h uint64, r *Rule) {
	if sw.emc.Put(h, full, r) {
		// Clock-hand eviction of a live entry: some memoized EMC-hit
		// script may now be wrong, so invalidate them all. Refreshing an
		// existing key changes nothing and keeps memos valid.
		sw.EMCEvictions++
		sw.cacheGen++
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
	noMemo := MemoDisabled()
	burst := &sw.rxScratch
	did := false
	for i := range sw.ports {
		p := sw.ports[i]
		n := p.RxBurst(now, m, burst[:])
		if n == 0 {
			continue
		}
		did = true
		frames := 0
		for _, b := range burst[:n] {
			frames += b.Run()
			// Each frame of a run is classified in turn — the caches it
			// fills and the counters it bumps are per frame — and, the
			// frames being identical, all meet the first one's rule.
			t := b.Template()
			memo := !noMemo && t != nil
			var mk memoKey
			var mh uint64
			if memo {
				mk = memoKey{tmpl: t.ID(), port: int32(i)}
				mh = memoHash(mk)
			}
			var rule *Rule
			for k := b.Run(); k > 0; k-- {
				if memo {
					if e, ok := sw.memo.Get(mh, mk); ok && e.gen == sw.cacheGen {
						rule = sw.replayMemo(m, e)
						continue
					}
				}
				key := extractKey(b, i)
				full := key.pack()
				h := keyHash(&full)
				rule = sw.classify(now, m, full, h)
				if memo {
					sw.recordMemo(t, i, full, h, rule)
				}
			}
			if rule == nil {
				sw.Dropped += int64(b.Run())
				b.Free()
				continue
			}
			sw.apply(m, b, rule)
		}
		// One noisy draw per frame, batched into a single charge; the
		// classify path above draws nothing, so the RNG stream is
		// consumed exactly as the per-frame order did.
		m.ChargeNoisyBatch(perPkt, jitterFrac, frames)
	}
	for i := range sw.ports {
		stage, frames := sw.txStage[i], sw.txFrames[i]
		if len(stage) == 0 {
			continue
		}
		did = true
		sent := sw.ports[i].TxBurst(now, m, stage)
		sw.Forwarded += int64(sent)
		sw.Dropped += int64(frames - sent)
		sw.txStage[i], sw.txFrames[i] = stage[:0], 0
	}
	return did
}

// replayMemo executes a recorded charge script: the identical simulated
// cycles and counters the reference classify path produces for a repeat
// frame, without extracting, packing, or probing anything.
func (sw *Switch) replayMemo(m *cost.Meter, e memoEntry) *Rule {
	m.Charge(e.cycles)
	switch e.kind {
	case memoEMCHit:
		sw.EMCHits++
	case memoNoMatch:
		sw.NoMatch++
		return nil
	}
	e.rule.Hits++
	return e.rule
}

// memoCap bounds the memo's entries. The churn cells drive one in_port,
// so a 512-flow cell needs 512 keys; 1024 is twice that. In the Zipf
// cells of 8192 and 32768 flows, fewer than 400 keys ever replay, and the
// hot ones arrive first. Past the cap, a key already recorded is still
// refreshed, so the templates that came first keep replaying across
// invalidations, while a new one is not recorded at all. Nothing is
// evicted, so which frames replay stays a pure function of the frame
// sequence; with thousands of flows churning the caches, an entry per
// flow would go stale before its template came round again, and the
// table would only cost its growth.
const memoCap = 1024

// recordMemo captures what the reference path will do for the *next* frame
// of this (template, in_port), given the caches classify just left behind.
// The entry stays valid while cacheGen is unchanged. A new key is recorded
// only while the memo holds fewer than memoCap entries.
func (sw *Switch) recordMemo(t *pkt.Template, inPort int, full packedKey, h uint64, rule *Rule) {
	k := memoKey{tmpl: t.ID(), port: int32(inPort)}
	mh := memoHash(k)
	if sw.memo.Len() >= memoCap {
		if _, ok := sw.memo.Get(mh, k); !ok {
			return
		}
	}
	e := memoEntry{gen: sw.cacheGen, rule: rule}
	if rule == nil {
		// Repeat frames re-walk every tier and drop.
		e.kind = memoNoMatch
		e.cycles = sw.env.Model.HashLookup +
			units.Cycles(len(sw.megaMasks))*(sw.env.Model.HashLookup+megaflowExtra) +
			slowPathCost
	} else {
		// classify just installed (or refreshed) the EMC entry, so the
		// next frame is an EMC hit.
		if r, ok := sw.emc.Get(h, full); !ok || r != rule {
			return
		}
		e.kind = memoEMCHit
		e.cycles = sw.env.Model.HashLookup + emcHitPerPkt
	}
	sw.memo.Put(mh, k, e)
}

// apply executes r's actions on every frame of b.
func (sw *Switch) apply(m *cost.Meter, b *pkt.Buf, r *Rule) {
	k := b.Run()
	m.Charge(units.Cycles(k) * applyPerPkt)
	out := -1
	for _, a := range r.Actions {
		switch a.Kind {
		case ActDrop:
			sw.Dropped += int64(k)
			b.Free()
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
		sw.Dropped += int64(k)
		b.Free()
		return
	}
	sw.txStage[out] = append(sw.txStage[out], b)
	sw.txFrames[out] += k
}

// Rules returns the OpenFlow table — the only record of the installed
// rules — in install order (a replaced rule keeps its place).
func (sw *Switch) Rules() []*Rule { return sw.rules }

// NextWork implements cpu.Waiter: an empty PMD iteration charges the
// drivers' fixed receive cost (the vhost modulation scales per-frame work
// only) until a port has a frame or the revalidation stall falls due.
func (sw *Switch) NextWork(now units.Time) units.Time {
	return min(sw.nextRev, switchdef.EarliestRx(now, sw.ports))
}

func init() {
	switchdef.Register(info, func(env switchdef.Env) switchdef.Switch { return New(env) })
}
