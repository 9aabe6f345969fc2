// Package tgen models the traffic generation and measurement tools of the
// paper's testbed: MoonGen as TX/RX on the NUMA-node-1 NIC (with hardware
// PTP timestamping for p2p/loopback latency), and the counting sinks.
//
// Generators run on dedicated node-1 cores, so — as the paper argues for
// its single-server methodology — they consume no SUT resources; their
// cost accounting is pacing only.
//
// A generator never builds a frame: each emitted buffer references a
// pre-serialized template, one per (frame length, flow), held in a flat
// slice indexed by size slot and flow, so picking it is an index, not a
// lookup. Templates are built on a flow's first frame and carved in
// chunks of up to 64 from slabs sized to the flows still unbuilt, so
// 32 768 flows cost about a thousand allocations rather than a hundred
// thousand, and one flow costs one image. A saturating generator of one
// flow and one frame length goes further: its burst's frames are one
// template, so they leave as runs (nic.Port.SendRunAt), one buffer each,
// and the frames the receiver's full RX ring drops never become buffers.
package tgen

import (
	"math"

	"repro/internal/nic"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
)

// DefaultBurst is MoonGen's TX burst size.
const DefaultBurst = 32

// imixSizes is the classic IMIX cycle: 7×64B, 4×570B, 1×1518B.
var imixSizes = []int{64, 570, 64, 570, 64, 1518, 64, 570, 64, 570, 64, 64}

// imixSlots runs in parallel with imixSizes: each entry is its length's
// index among IMIX's imixLens distinct lengths, the size slot of the
// generator's template table.
var imixSlots = []int{0, 1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 0}

const imixLens = 3

// tmplChunk caps how many templates one slab allocation provides.
const tmplChunk = 64

// Config describes one generator (one TX port).
type Config struct {
	Name string
	Port *nic.Port
	Pool *pkt.Pool
	Spec pkt.FrameSpec
	// Rate is the offered load; 0 means saturate the line.
	Rate units.BitRate
	// ProbeEvery injects a PTP latency probe at this interval (0 = none).
	ProbeEvery units.Time
	// Flows cycles the synthetic traffic across this many flows
	// (distinct source MAC + UDP source port); 0/1 = the paper's
	// single-flow traffic.
	Flows int
	// ZipfSkew, when > 0 (with Flows > 1 and an RNG), draws each
	// frame's flow from a Zipf distribution with this exponent instead
	// of the round-robin cycle: flow k carries weight 1/(k+1)^skew, the
	// heavy-tailed mix of real traces. 0 keeps the cycle byte-identical.
	ZipfSkew float64
	// RNG drives the Zipf draw (required only when ZipfSkew > 0).
	RNG *sim.RNG
	// IMIX cycles frame sizes through the classic Internet mix
	// (7×64B : 4×570B : 1×1518B) instead of Spec.FrameLen.
	IMIX bool
}

// Generator is a MoonGen TX thread.
type Generator struct {
	cfg   Config
	sched *sim.Scheduler
	task  *sim.Task

	seq       uint64
	nextProbe units.Time
	nextDue   units.Time // rate-mode pacing
	gap       units.Time // rate-mode inter-frame time
	// txCredit is a lower bound on the port's free TX descriptors: only
	// this generator sends on the port and frames only ever leave the
	// ring, so room seen once stays until spent and the ring is asked
	// again only when the credit runs out.
	txCredit int
	// runs is set for saturating single-flow fixed-length traffic, whose
	// frames are all one template: bursts leave as runs (see emitRuns).
	runs bool

	// tmpls holds one pre-serialized frame image per (size slot, flow) at
	// index slot*flows + flow; emitted buffers reference it lazily instead
	// of being built. The slot is 0 for fixed-length traffic and the
	// frame length's imixSlots entry under IMIX. An entry is nil until
	// its first frame is emitted.
	tmpls []*pkt.Template
	flows int // max(Flows, 1)
	// slabs carves each size slot's templates, images included, out of
	// chunks of min(tmplChunk, that slot's flows not yet built): a
	// one-flow generator allocates exactly one image.
	slabs [imixLens]tmplSlab

	// zipfCDF is the precomputed flow-weight CDF when ZipfSkew is
	// active; nil keeps the round-robin path untouched. zipfGuide
	// narrows each draw's search (see zipfGuide).
	zipfCDF   []float64
	zipfGuide []int32

	// Sent counts emitted frames; SentProbes the probe subset.
	Sent       int64
	SentProbes int64
}

// tmplSlab is the unclaimed rest of one size slot's current chunk.
type tmplSlab struct {
	tmpls []pkt.Template
	data  []byte
	built int // templates of this slot built so far
}

// NewGenerator registers a generator with the scheduler (idle until Start).
func NewGenerator(s *sim.Scheduler, cfg Config) *Generator {
	g := &Generator{cfg: cfg, sched: s, flows: max(cfg.Flows, 1)}
	g.runs = cfg.Rate <= 0 && cfg.Flows <= 1 && !cfg.IMIX
	slots := 1
	if cfg.IMIX {
		slots = imixLens
	}
	g.tmpls = make([]*pkt.Template, slots*g.flows)
	if cfg.Rate > 0 {
		g.gap = cfg.Rate.WireTime(cfg.Spec.FrameLen)
	}
	if cfg.ZipfSkew > 0 && cfg.Flows > 1 && cfg.RNG != nil {
		g.zipfCDF = zipfCDF(cfg.Flows, cfg.ZipfSkew)
		g.zipfGuide = zipfGuide(g.zipfCDF)
	}
	g.task = s.Register(cfg.Name, g)
	return g
}

// zipfCDF precomputes the cumulative weights of a Zipf distribution over
// n flows: flow k has weight 1/(k+1)^s. An explicit CDF plus a guided
// search keeps the draw exact, allocation-free, and — unlike
// rejection-based samplers — consuming exactly one RNG value per frame,
// so the random stream's alignment is a pure function of the frame index.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// zipfGuide is a guide table over cdf with n = len(cdf) buckets: a draw u
// falls in bucket int(u*n), and guide[k] is the first index whose cdf
// value falls in bucket k or later. Buckets come from the same
// multiplication for draws and for cdf values, and it is monotone, so the
// index SearchFloat64s(cdf, u) finds lies in [guide[k], guide[k+1]]
// exactly, not up to rounding. guide[n+1] = n keeps u = 1 in range.
func zipfGuide(cdf []float64) []int32 {
	n := len(cdf)
	guide := make([]int32, n+2)
	k := 0
	for i, c := range cdf {
		for b := min(int(c*float64(n)), n); k <= b; k++ {
			guide[k] = int32(i)
		}
	}
	for ; k < len(guide); k++ {
		guide[k] = int32(n)
	}
	return guide
}

// zipfSearch returns sort.SearchFloat64s(cdf, u) for u in [0, 1],
// binary-searching only u's guide bucket.
func zipfSearch(cdf []float64, guide []int32, u float64) int {
	k := int(u * float64(len(cdf)))
	lo, hi := int(guide[k]), int(guide[k+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// zipfFlow draws one flow index from the precomputed CDF.
func (g *Generator) zipfFlow() int {
	return zipfSearch(g.zipfCDF, g.zipfGuide, g.cfg.RNG.Float64())
}

// Start schedules the first burst.
func (g *Generator) Start(at units.Time) {
	g.nextDue = at
	g.nextProbe = at + g.cfg.ProbeEvery
	g.sched.WakeAt(g.task, at)
}

// build makes the frame image for flow in size slot slot (frames of
// frameLen bytes) from the slot's slab, starting a new chunk when the
// current one is used up.
func (g *Generator) build(slot, frameLen, flow int) *pkt.Template {
	s := &g.slabs[slot]
	if len(s.tmpls) == 0 {
		n := min(tmplChunk, g.flows-s.built)
		s.tmpls, s.data = make([]pkt.Template, n), make([]byte, n*frameLen)
	}
	spec := g.cfg.Spec
	spec.FrameLen = frameLen
	t := &s.tmpls[0]
	spec.FillTemplate(t, s.data[:frameLen:frameLen], flow)
	s.tmpls, s.data = s.tmpls[1:], s.data[frameLen:]
	s.built++
	g.tmpls[slot*g.flows+flow] = t
	return t
}

// emitOne builds and transmits one frame stamped at time at, reporting
// whether the burst should continue (false: TX ring full). Ordering of the
// sequence counter, IMIX size cycle, flow assignment, and probe marking is
// load-bearing: it fixes the exact byte content and metadata of frame
// g.seq+1 and must not change.
func (g *Generator) emitOne(at units.Time) bool {
	port := g.cfg.Port
	if g.txCredit == 0 {
		if g.txCredit = port.TxFree(at); g.txCredit == 0 {
			return false
		}
	}
	g.txCredit--
	frameLen, slot := g.cfg.Spec.FrameLen, 0
	if g.cfg.IMIX {
		i := g.seq % uint64(len(imixSizes))
		frameLen, slot = imixSizes[i], imixSlots[i]
	}
	g.seq++
	flow := 0
	if g.zipfCDF != nil {
		flow = g.zipfFlow()
	} else if g.cfg.Flows > 1 {
		flow = int(g.seq) % g.cfg.Flows
	}
	t := g.tmpls[slot*g.flows+flow]
	if t == nil {
		t = g.build(slot, frameLen, flow)
	}
	b := g.cfg.Pool.Get(frameLen)
	b.SetTemplate(t)
	b.Seq = g.seq
	if g.cfg.ProbeEvery > 0 && at >= g.nextProbe {
		pkt.MarkProbe(b, g.seq, 0) // TxStamp 0: the NIC stamps on the wire
		g.nextProbe = at + g.cfg.ProbeEvery
		g.SentProbes++
	}
	if !port.SendAt(at, b) {
		b.Free()
		return false
	}
	g.Sent++
	return true
}

// emitRuns sends up to budget frames stamped at time at exactly as that many
// emitOne calls would, but as runs: a due probe still goes through emitOne,
// and the frames around it leave in nic.Port.SendRunAt calls of as many as
// the TX credit covers. Only for g.runs traffic, where every frame but a
// probe is the same template.
func (g *Generator) emitRuns(at units.Time, budget int) {
	port, frameLen := g.cfg.Port, g.cfg.Spec.FrameLen
	for budget > 0 {
		if g.cfg.ProbeEvery > 0 && at >= g.nextProbe {
			if !g.emitOne(at) {
				return
			}
			budget--
			continue
		}
		if g.txCredit == 0 {
			if g.txCredit = port.TxFree(at); g.txCredit == 0 {
				return
			}
		}
		n := min(budget, g.txCredit)
		t := g.tmpls[0]
		if t == nil {
			t = g.build(0, frameLen, 0)
		}
		b := g.cfg.Pool.Get(frameLen)
		b.SetTemplate(t)
		b.Seq = g.seq + 1
		port.SendRunAt(at, b, n)
		g.seq += uint64(n)
		g.txCredit -= n
		g.Sent += int64(n)
		budget -= n
	}
}

// Step implements sim.Actor: emit one burst (saturating mode) or one
// CBR-spaced batch (rate mode, as MoonGen paces) and reschedule.
func (g *Generator) Step(now units.Time) (units.Time, bool) {
	port := g.cfg.Port
	if g.cfg.Rate <= 0 {
		// Saturating mode keeps the TX ring topped up so the wire never
		// idles on the doorbell latency (MoonGen queues descriptors
		// ahead of the NIC).
		if g.runs {
			g.emitRuns(now, 4*DefaultBurst)
		} else {
			for i := 0; i < 4*DefaultBurst; i++ {
				if !g.emitOne(now) {
					break
				}
			}
		}
		// Return before the queued frames drain so the ring never empties.
		next := now + units.Time(DefaultBurst)*port.Rate().WireTime(g.cfg.Spec.FrameLen)/2
		if until := port.BusyUntil(); until > now && until-now < next-now {
			// Ring nearly empty: catch up immediately.
			next = until
		}
		if next <= now {
			next = now + units.Nanosecond
		}
		return next, true
	}
	// Rate mode: constant bit rate. One scheduler step emits up to
	// DefaultBurst frames, each stamped with its own CBR due time via
	// SendAt, never past the dispatch deadline: this is bit-identical to
	// one step per frame because the unbatched engine dispatched the
	// generator at exactly these instants (the TX port is touched only by
	// its generator, and everything downstream keys off the frame's stamp,
	// not the clock).
	deadline := g.sched.Deadline()
	for i := 0; i < DefaultBurst; i++ {
		due := g.nextDue
		if i > 0 && due > deadline {
			break
		}
		g.emitOne(due)
		g.nextDue += g.gap
		if g.nextDue <= due {
			g.nextDue = due + units.Nanosecond
		}
	}
	return g.nextDue, true
}

// Sink is the RX/measurement side (MoonGen RX thread or FloWatcher): it
// drains a NIC port, counts frames, and records probe round-trip times.
type Sink struct {
	Port *nic.Port

	sched *sim.Scheduler
	task  *sim.Task
	every units.Time

	// Rx counts everything the sink consumed; Hist collects probe RTTs.
	Rx   stats.Counter
	Hist stats.Histogram
	// Capture, when set, observes every consumed frame (pcap dumps).
	Capture func(at units.Time, b *pkt.Buf)

	scratch [256]*pkt.Buf // receive staging, reused across polls
}

// SinkPollInterval is how often the sink drains its port; with a 4096-deep
// ring this never drops at line rate.
const SinkPollInterval = 2 * units.Microsecond

// NewSink registers a sink with the scheduler (idle until Start).
func NewSink(s *sim.Scheduler, name string, port *nic.Port) *Sink {
	k := &Sink{Port: port, sched: s, every: SinkPollInterval}
	k.task = s.Register(name, k)
	return k
}

// Start schedules the first poll.
func (k *Sink) Start(at units.Time) { k.sched.WakeAt(k.task, at) }

// Step implements sim.Actor.
func (k *Sink) Step(now units.Time) (units.Time, bool) {
	burst := &k.scratch
	for {
		n := k.Port.RxBurst(now, burst[:])
		if n == 0 {
			break
		}
		for _, b := range burst[:n] {
			k.Rx.Add(1, int64(b.Len()))
			if k.Capture != nil {
				k.Capture(b.Ingress, b)
			}
			if b.Probe {
				if _, tx, ok := pkt.ProbeInfo(b); ok && tx > 0 {
					k.Hist.Add(b.Ingress - tx)
				} else if b.TxStamp > 0 {
					k.Hist.Add(b.Ingress - b.TxStamp)
				}
			}
			b.Free()
		}
		if n < len(burst) {
			break
		}
	}
	return now + k.every, true
}
