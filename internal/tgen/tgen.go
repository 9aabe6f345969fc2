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
// lookup. A template is a pure function of (pkt.FrameSpec, flow) and never
// changes, so the generator does not build its own either: on a flow's
// first frame it takes the template from one process-wide store
// (SharedTemplate), which builds each image once for every cell, campaign
// worker and guest generator of the process. The store carves templates in
// chunks of up to 64 from slabs sized to the flows a caller still lacks, so
// 32 768 flows cost about a thousand allocations rather than a hundred
// thousand, once. Only the first template of each FrameSpec is serialized;
// every later flow's is a copy of that image with its source MAC and UDP
// source port patched in (pkt.FrameSpec.FillTemplateFrom), which is byte
// for byte what serializing it would write, and which takes that image's
// header verdict (pkt.Layout) unparsed. A saturating generator of one
// flow and one frame length goes further: its burst's frames are one
// template, so they leave as runs (nic.Port.SendRunAt), one buffer each:
// the frames the receiver's full RX ring drops never become buffers, and
// the switch forwards the rest as runs too.
//
// A sink runs no poll loop: its port hands it every frame as the frame is
// sent, and it counts the frame at the poll instant MoonGen's RX thread
// would have drained it, so its cost is per frame or per run, not per
// 2 µs of simulated time, and a frame on the return leg holds no buffer
// once it has left the SUT (see Sink).
package tgen

import (
	"fmt"
	"math"
	"sync"

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

// tmplChunk caps how many templates one store slab provides.
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
	// its first frame is emitted; then it is the store's template, and
	// this index, read without a lock, is what keeps later frames off the
	// store's.
	tmpls []*pkt.Template
	flows int // max(Flows, 1)
	// specs is each size slot's store entry, looked up on its first frame.
	specs [imixLens]*specTemplates

	// zipf is the shared draw table of (Flows, ZipfSkew) when ZipfSkew
	// is active; nil keeps the round-robin path untouched.
	zipf *zipfTable

	// Sent counts emitted frames; SentProbes the probe subset.
	Sent       int64
	SentProbes int64
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
		g.zipf = sharedZipf(cfg.Flows, cfg.ZipfSkew)
	}
	g.task = s.Register(cfg.Name, g)
	return g
}

// zipfTable is what a Zipf draw reads: the CDF and its guide table.
type zipfTable struct {
	cdf   []float64
	guide []int32
}

// zipfTables holds one zipfTable per (flows, skew) for the life of the
// process: every cell and campaign worker drawing from the same
// distribution reads one table instead of recomputing a math.Pow per flow.
// The tables are read-only once built; the lock only guards the map. The
// pairs a process meets are few (the churn family has four, the largest
// 0.4 MB), so nothing is ever evicted.
var zipfTables struct {
	sync.Mutex
	m map[zipfKey]*zipfTable
}

type zipfKey struct {
	n int
	s float64
}

// sharedZipf returns the draw table of n flows at skew s, building it on
// first use.
func sharedZipf(n int, s float64) *zipfTable {
	zipfTables.Lock()
	defer zipfTables.Unlock()
	k := zipfKey{n, s}
	t := zipfTables.m[k]
	if t == nil {
		cdf := zipfCDF(n, s)
		t = &zipfTable{cdf: cdf, guide: zipfGuide(cdf)}
		if zipfTables.m == nil {
			zipfTables.m = make(map[zipfKey]*zipfTable)
		}
		zipfTables.m[k] = t
	}
	return t
}

// templates is the process-wide template store: one specTemplates per
// FrameSpec (its FrameLen included), built on first use and kept, like
// zipfTables, for the life of the process. A template is never written
// once built, so a reader needs the lock only to find it; the lock guards
// every entry's index and slab.
var templates struct {
	sync.Mutex
	m map[pkt.FrameSpec]*specTemplates
}

// specTemplates is one FrameSpec's templates: flow f's at tmpls[f], nil
// until built. It costs flows × (40 B + FrameLen) — a Template, its index
// pointer and its image — for the life of the process.
type specTemplates struct {
	spec  pkt.FrameSpec
	tmpls []*pkt.Template
	built int
	// first is the spec's first template built, the one serialized image
	// every later one copies and patches.
	first *pkt.Template
	// free and data are the unclaimed rest of the current slab.
	free []pkt.Template
	data []byte
}

// specEntry returns spec's store entry, creating it on first use.
func specEntry(spec pkt.FrameSpec) *specTemplates {
	templates.Lock()
	defer templates.Unlock()
	e := templates.m[spec]
	if e == nil {
		e = &specTemplates{spec: spec}
		if templates.m == nil {
			templates.m = make(map[pkt.FrameSpec]*specTemplates)
		}
		templates.m[spec] = e
	}
	return e
}

// template returns flow's template, building it on first use from the
// current slab. A used-up slab is replaced by one of min(tmplChunk,
// flows − built) templates (at least one), flows being how many flows the
// caller draws from.
func (e *specTemplates) template(flow, flows int) *pkt.Template {
	templates.Lock()
	defer templates.Unlock()
	if flow < len(e.tmpls) && e.tmpls[flow] != nil {
		return e.tmpls[flow]
	}
	if flow >= len(e.tmpls) {
		grown := make([]*pkt.Template, max(flows, flow+1))
		copy(grown, e.tmpls)
		e.tmpls = grown
	}
	frameLen := e.spec.FrameLen
	if len(e.free) == 0 {
		n := min(tmplChunk, max(flows-e.built, 1))
		e.free, e.data = make([]pkt.Template, n), make([]byte, n*frameLen)
	}
	t, data := &e.free[0], e.data[:frameLen:frameLen]
	if e.first == nil {
		e.spec.FillTemplate(t, data, flow)
		e.first = t
	} else {
		e.spec.FillTemplateFrom(t, data, e.first, flow)
	}
	e.free, e.data = e.free[1:], e.data[frameLen:]
	e.built++
	e.tmpls[flow] = t
	return t
}

// SharedTemplate returns flow's template of spec from the process-wide
// store, building it on first use: the same *pkt.Template for every
// caller in the process.
func SharedTemplate(spec pkt.FrameSpec, flow int) *pkt.Template {
	return specEntry(spec).template(flow, flow+1)
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
	return zipfSearch(g.zipf.cdf, g.zipf.guide, g.cfg.RNG.Float64())
}

// Start schedules the first burst.
func (g *Generator) Start(at units.Time) {
	g.nextDue = at
	g.nextProbe = at + g.cfg.ProbeEvery
	g.sched.WakeAt(g.task, at)
}

// template returns flow's template in size slot slot (frames of frameLen
// bytes) from the store, and indexes it for the generator's later frames.
func (g *Generator) template(slot, frameLen, flow int) *pkt.Template {
	e := g.specs[slot]
	if e == nil {
		spec := g.cfg.Spec
		spec.FrameLen = frameLen
		e = specEntry(spec)
		g.specs[slot] = e
	}
	t := e.template(flow, g.flows)
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
	if g.zipf != nil {
		flow = g.zipfFlow()
	} else if g.cfg.Flows > 1 {
		flow = int(g.seq) % g.cfg.Flows
	}
	t := g.tmpls[slot*g.flows+flow]
	if t == nil {
		t = g.template(slot, frameLen, flow)
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
			t = g.template(0, frameLen, 0)
		}
		b := g.cfg.Pool.Get(frameLen)
		b.SetTemplate(t)
		b.Seq = g.seq + 1
		b.SetRun(n)
		port.SendRunAt(at, b)
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
// counts a NIC port's frames and bytes and records probe round-trip times.
//
// MoonGen's RX thread drains its port every SinkPollInterval; the Sink gives
// exactly what that loop gives without running it. Its port hands it each
// frame on arrival (nic.Port.BindSink), and the Sink books the frame at its
// drain instant — the first poll start + k·SinkPollInterval at or after the
// frame becomes visible — and frees the buffer at once. A frame whose drain
// instant lies beyond the running RunUntil deadline waits in a FIFO
// (Pending) until a RunUntil that covers it returns; the polls themselves
// are booked as scheduler steps. So what is read between RunUntil calls —
// Rx, Hist, Capture's output, the scheduler's Steps — is what the poll loop
// left: a frame counts, and a probe's sample survives a Hist.Reset, iff its
// drain instant lies at or before the last deadline (a poll at the deadline
// itself runs).
type Sink struct {
	Port *nic.Port

	// Rx counts everything the sink consumed; Hist collects probe RTTs.
	Rx   stats.Counter
	Hist stats.Histogram
	// Capture, when set, observes every consumed frame (pcap dumps) in
	// drain order, by the end of the RunUntil call that drains it. A
	// pending frame keeps its buffer only while Capture is set, so set it
	// before the frames it should see arrive.
	Capture func(at units.Time, b *pkt.Buf)

	sched *sim.Scheduler
	name  string
	start units.Time // the first poll; Never until Start
	polls uint64     // polls booked as scheduler steps so far

	// cut is the last poll at or before deadline, the RunUntil bound it
	// was computed for: an arrival visible by then is drained in this call.
	deadline, cut units.Time
	// pending[head:] holds, in arrival (and so drain) order, the frames
	// whose drain instant lies beyond the last deadline.
	pending []arrival
	head    int
}

// arrival is n frames of one length handed to the sink together, the first
// visible at vis and each later one gap after it: a run of the wire's, or a
// single frame.
type arrival struct {
	vis, gap units.Time
	rtt      units.Time // the probe's sample, when probe
	b        *pkt.Buf   // the frames' buffer, kept for Capture only
	n, len   int32
	probe    bool
}

// SinkPollInterval is how often MoonGen's RX thread drains its port; with
// a 4096-deep ring this never drops at line rate.
const SinkPollInterval = 2 * units.Microsecond

// NewSink binds a sink to port (idle until Start). It panics unless the
// port's RX ring covers a SinkPollInterval of line-rate arrivals
// (nic.Port.BindSink), the condition under which draining at arrival and
// draining every poll see the same frames.
func NewSink(s *sim.Scheduler, name string, port *nic.Port) *Sink {
	k := &Sink{Port: port, sched: s, name: name, start: units.Never, deadline: -1}
	port.BindSink(SinkPollInterval, k.arrive)
	s.OnSettle(k.settleAt)
	return k
}

// Start sets the first poll, at time at (or now, if that is later). No
// frame may reach the port before it.
func (k *Sink) Start(at units.Time) { k.start = max(at, k.sched.Now()) }

// Pending returns how many frames have reached the sink but not yet been
// drained, and the drain instant of the first of them (units.Never if
// none). Between RunUntil calls that instant lies beyond the last deadline.
func (k *Sink) Pending() (frames int64, due units.Time) {
	due = units.Never
	if k.head < len(k.pending) {
		due = k.lastPoll(k.pending[k.head].vis + SinkPollInterval - 1)
	}
	for _, a := range k.pending[k.head:] {
		frames += int64(a.n)
	}
	return frames, due
}

// lastPoll returns the last poll at or before t, or an instant before
// every frame's visibility if the first poll comes later.
func (k *Sink) lastPoll(t units.Time) units.Time {
	if t < k.start {
		return k.start - 1
	}
	return t - (t-k.start)%SinkPollInterval
}

// arrive takes the port's arrivals (nic.Port.BindSink): frames visible by
// the current deadline's last poll drain now, the rest wait in order.
func (k *Sink) arrive(b *pkt.Buf, vis units.Time) {
	if vis < k.start {
		panic(fmt.Sprintf("tgen: frame visible at %v reached sink %s before its first poll at %v", vis, k.name, k.start))
	}
	if d := k.sched.Deadline(); d != k.deadline {
		k.deadline, k.cut = d, k.lastPoll(d)
	}
	// Field by field: a composite literal is built in a temporary and
	// copied with wide loads that stall on store forwarding, which cost
	// ~20 ns a frame.
	var a arrival
	a.vis, a.gap, a.b, a.n, a.len = vis, b.Gap, b, int32(b.Run()), int32(b.Len())
	if b.Probe && b.TxStamp > 0 {
		a.rtt, a.probe = b.Ingress-b.TxStamp, true
	}
	if k.head < len(k.pending) {
		k.settle(k.cut)
	}
	if k.head == len(k.pending) && k.take(&a, k.cut) {
		return
	}
	if k.Capture == nil {
		b.Free()
		a.b = nil
	}
	k.push(a)
}

// push appends a to the pending frames. Frames leaving a backlogged TX ring
// arrive back to back, so a continues the last entry's progression — same
// length, evenly spaced, no probe sample or buffer to keep — more often than
// not, and then extends it instead.
func (k *Sink) push(a arrival) {
	if n := len(k.pending); n > k.head {
		l := &k.pending[n-1]
		if l.b == nil && a.b == nil && !l.probe && !a.probe && l.len == a.len {
			gap := a.vis - (l.vis + units.Time(l.n-1)*l.gap)
			if gap > 0 && (l.n == 1 || l.gap == gap) && (a.n == 1 || a.gap == gap) {
				l.gap = gap
				l.n += a.n
				return
			}
		}
	}
	k.pending = append(k.pending, a)
}

// settleAt runs as every RunUntil returns: it drains the frames whose
// drain instant the deadline reached and books the polls up to it.
func (k *Sink) settleAt(deadline units.Time) {
	k.settle(k.lastPoll(deadline))
	if deadline < k.start {
		return
	}
	if polls := uint64((deadline-k.start)/SinkPollInterval) + 1; polls > k.polls {
		k.sched.CountSteps(polls - k.polls)
		k.polls = polls
	}
}

// settle drains the pending frames visible by the poll at cut.
func (k *Sink) settle(cut units.Time) {
	for k.head < len(k.pending) && k.take(&k.pending[k.head], cut) {
		k.head++
	}
	if k.head == len(k.pending) {
		k.pending, k.head = k.pending[:0], 0
	}
}

// take drains the frames of a visible by the poll at cut, reporting whether
// that was all of them; what is left of a run stays in a.
func (k *Sink) take(a *arrival, cut units.Time) bool {
	if a.vis > cut {
		return false
	}
	m := a.n
	if m > 1 {
		if v := (cut-a.vis)/a.gap + 1; v < units.Time(m) {
			m = int32(v)
		}
	}
	k.Rx.Add(int64(m), int64(m)*int64(a.len))
	if a.probe {
		k.Hist.Add(a.rtt)
	}
	if a.b != nil && k.Capture != nil {
		k.capture(a.b, int(m), a.gap)
	}
	if m < a.n {
		a.vis += units.Time(m) * a.gap
		a.n -= m
		return false
	}
	if a.b != nil {
		a.b.Free()
	}
	return true
}

// capture hands Capture the first m frames of the run in b, each as a
// frame of its own with its own Ingress and Seq, and leaves b holding the
// rest (or its last frame, when m is all of them).
func (k *Sink) capture(b *pkt.Buf, m int, gap units.Time) {
	n := b.Run()
	b.SetRun(1)
	for i := 0; i < m; i++ {
		if i > 0 {
			b.Ingress += gap
			b.Seq++
		}
		k.Capture(b.Ingress, b)
	}
	if n > m {
		b.Ingress += gap
		b.Seq++
		b.SetRun(n - m)
	}
}
