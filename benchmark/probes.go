package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cpu"
	"repro/internal/flowtab"
	"repro/internal/nic"
	"repro/internal/pkt"
	"repro/internal/ptnet"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/switches/switchdef"
	"repro/internal/switches/switchtest"
	"repro/internal/tgen"
	"repro/internal/topo"
	"repro/internal/units"
	"repro/internal/vhost"
	"repro/internal/vm"
)

// Layer probes time calls into one layer's exported functions from here,
// with no simulator around them. Each runs batches of operations, times
// every batch, and reports the median batch as nanoseconds per operation.

const (
	burst   = 32   // the DPDK/MoonGen burst size every model uses
	bufSize = 2048 // core's mbuf size
)

// probeEnv is what a probe runs in: how long, in which traffic shape, on
// which random stream.
type probeEnv struct {
	// At least min batches and at least d of measuring, whichever takes
	// longer.
	d   time.Duration
	min int

	sh   shape
	rng  *sim.RNG
	seed uint64
}

// newProbeEnv shares three tenths of a traced run among its thirty-odd
// probes; a smoke run takes three batches of each.
func newProbeEnv(w *workload, opt options) probeEnv {
	e := probeEnv{sh: w.shape, rng: sim.NewRNG(opt.seed).Derive("probes"), seed: opt.seed, min: 3}
	if !opt.smoke {
		e.d, e.min = time.Duration(0.3/32*opt.seconds*float64(time.Second)), 200
	}
	return e
}

// probed is one probe's outcome.
type probed struct {
	nsPerOp float64
	batches int
	// perOp is a second quantity counted over the whole probe
	// (allocations per 1000 operations, or bytes per operation), when the
	// probe has one.
	perOp float64
}

// probeSet holds the outcomes of a traced run's probes by metric name.
type probeSet map[string]probed

// into reports every probe in the unit its metric is defined in.
func (ps probeSet) into(lm map[string]metric) {
	perNs := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}
	for name, p := range ps {
		unit := unitOf(name)
		lm[name] = metric{p.nsPerOp / perNs[unit], unit}
	}
}

// batchCounts lists how many timed batches each probe's median is over.
func (ps probeSet) batchCounts() string {
	var parts []string
	for _, d := range perLayer {
		if p, ok := ps[d.Name]; ok {
			parts = append(parts, fmt.Sprintf("%s %d", d.Name, p.batches))
		}
	}
	return strings.Join(parts, ", ")
}

// sinkhole keeps results alive so the compiler cannot drop probed calls.
var sinkhole float64

// timeBatches runs batch until the budget is met and returns the median
// batch. A batch times itself — so it can leave its own preparation out —
// and returns the operations it timed. A probe so cheap that it would
// take fifty times the batches stops there, and one so costly that the
// batches would take ten times the budget stops at twenty.
func (e probeEnv) timeBatches(batch func() (ops int, d time.Duration)) probed {
	batch() // warm caches, grow slices
	var per []float64
	start := time.Now()
	for len(per) < e.min || time.Since(start) < e.d {
		ops, d := batch()
		if ops > 0 {
			per = append(per, float64(d.Nanoseconds())/float64(ops))
		}
		if len(per) >= 50*e.min || (len(per) >= 20 && time.Since(start) > 10*e.d) {
			break
		}
	}
	return probed{nsPerOp: median(per), batches: len(per)}
}

// whole times everything a batch does.
func whole(batch func() int) func() (int, time.Duration) {
	return func() (int, time.Duration) {
		t0 := time.Now()
		ops := batch()
		return ops, time.Since(t0)
	}
}

// counted is timeBatches that also fills perOp from the allocator's
// counters: extract(before, after) per operation.
func (e probeEnv) counted(batch func() int, extract func(before, after *runtime.MemStats) float64) probed {
	var before, after runtime.MemStats
	ops := 0
	runtime.ReadMemStats(&before)
	p := e.timeBatches(whole(func() int { n := batch(); ops += n; return n }))
	runtime.ReadMemStats(&after)
	if ops > 0 {
		p.perOp = extract(&before, &after) / float64(ops)
	}
	return p
}

// flowSequence is the workload's flow mix as a precomputed index
// sequence: round robin at skew 0, Zipf draws otherwise.
func (e probeEnv) flowSequence(n int) []int {
	seq := make([]int, n)
	flows := e.sh.flows
	if flows <= 1 {
		return seq
	}
	if e.sh.zipf == 0 {
		for i := range seq {
			seq[i] = i % flows
		}
		return seq
	}
	cdf := make([]float64, flows)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -e.sh.zipf)
		cdf[k] = sum
	}
	for i := range seq {
		seq[i] = min(sort.SearchFloat64s(cdf, e.rng.Float64()*sum), flows-1)
	}
	return seq
}

func (e probeEnv) frameSpec() pkt.FrameSpec {
	return pkt.FrameSpec{
		SrcMAC: switchdef.PortMAC(0), DstMAC: switchdef.PortMAC(1),
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 1, 2},
		SrcPort: 1000, DstPort: 2001, FrameLen: e.sh.frameLen,
	}
}

func (e probeEnv) meter() *cost.Meter { return cost.NewMeter(cost.Default(), e.rng.Derive("meter")) }

// frameSource fills bursts with template-backed buffers in the
// workload's flow mix.
type frameSource struct {
	pool  *pkt.Pool
	tmpls []*pkt.Template // one frame image per flow
	seq   []int
	next  int
	buf   [burst]*pkt.Buf
}

func (e probeEnv) frameSource() *frameSource {
	f := &frameSource{pool: pkt.NewPool(bufSize), seq: e.flowSequence(1 << 16)}
	spec := e.frameSpec()
	for i := 0; i < max(e.sh.flows, 1); i++ {
		f.tmpls = append(f.tmpls, spec.Template(i))
	}
	return f
}

func (f *frameSource) fill() []*pkt.Buf {
	for i := range f.buf {
		t := f.tmpls[f.seq[f.next]]
		f.next = (f.next + 1) % len(f.seq)
		b := f.pool.Get(t.Len())
		b.SetTemplate(t)
		f.buf[i] = b
	}
	return f.buf[:]
}

func freeAll(bufs []*pkt.Buf) {
	for _, b := range bufs {
		b.Free()
	}
}

// layerProbe is one probe of the traced run: the metric it reports, the
// second metric it counts (if any), and the probe.
type layerProbe struct {
	metric, extra string
	run           func(probeEnv) (probed, error)
}

// layerProbes lists the probes in the order they run. The span of a
// probe is named after the layer, the part of the metric's name before
// the first dot.
func layerProbes() []layerProbe {
	ps := []layerProbe{
		{metric: "sim.step_ns", run: probeSimStep},
		{metric: "sim.rng_exp_ns", run: probeRNGExp},
		{metric: "tgen.emit_ns_per_frame", extra: "tgen.allocs_per_kframe", run: probeWireLoop},
		{metric: "nic.sendrx_ns_per_frame", run: probeNIC},
		{metric: "pkt.pool_getfree_ns", run: probePoolWarm},
		{metric: "pkt.pool_cold_get_ns", extra: "pkt.pool_cold_bytes_per_buf", run: probePoolCold},
		{metric: "pkt.materialize_ns", run: probeMaterialize},
		{metric: "ring.burst_ns_per_frame", run: probeRing},
		{metric: "vhost.crossing_ns_per_frame", run: probeVhost},
		{metric: "ptnet.crossing_ns_per_frame", run: probePtnet},
		{metric: "vm.l2fwd_ns_per_frame", run: probeL2Fwd},
		{metric: "cost.charge_ns", run: probeCharge},
		{metric: "cpu.idle_poll_ns", run: probeIdlePoll},
		{metric: "flowtab.cache_lookup_ns", run: probeFlowCache},
		{metric: "stats.hist_add_ns", run: probeHistAdd},
		{metric: "topo.plan_us", run: probePlan},
		{metric: "core.cell_fixed_ms", run: probeCellFixed},
	}
	for _, name := range core.Switches {
		name := name
		ps = append(ps, layerProbe{
			metric: "switches." + name + ".poll_ns_per_frame",
			run:    func(e probeEnv) (probed, error) { return probeSwitchPoll(e, name) },
		})
	}
	for _, name := range []string{"ovs", "vpp"} {
		name := name
		ps = append(ps, layerProbe{
			metric: "switches." + name + ".install_revoke_us",
			run:    func(e probeEnv) (probed, error) { return probeInstallRevoke(e, name) },
		})
	}
	return ps
}

// probeSimStep dispatches self-rescheduling actors, as many as the
// workload's largest cell has: its placed endpoints and VNFs plus the
// switch's core.
func probeSimStep(e probeEnv) (probed, error) {
	g, err := e.sh.largest.Graph()
	if err != nil {
		return probed{}, err
	}
	plan, err := topo.NewPlan(g)
	if err != nil {
		return probed{}, err
	}
	s := sim.NewScheduler()
	for i := 0; i < len(plan.Actors)+1; i++ {
		period := units.Time(100+7*i) * units.Nanosecond
		t := s.Register("actor", sim.StepFunc(func(now units.Time) (units.Time, bool) {
			return now + period, true
		}))
		s.WakeAt(t, 0)
	}
	return e.timeBatches(whole(func() int {
		before := s.Steps()
		s.RunUntil(s.Now() + 50*units.Microsecond)
		return int(s.Steps() - before)
	})), nil
}

func probeRNGExp(e probeEnv) (probed, error) {
	return e.timeBatches(whole(func() int {
		acc := 0.0
		for i := 0; i < 1024; i++ {
			acc += e.rng.ExpFloat64()
		}
		sinkhole += acc
		return 1024
	})), nil
}

// probeWireLoop is the generator -> port <=> port -> sink loop on a
// scheduler with no switch in between: what a frame costs the host
// before and after the system under test, in the workload's generator
// mode (saturating, paced with probes, or a multi-flow mix). It also
// counts the loop's heap allocations per 1000 frames.
func probeWireLoop(e probeEnv) (probed, error) {
	s := sim.NewScheduler()
	ports := nic.Config{TxRing: 4096, RxRing: 4096, HWTimestamp: true} // core's generator-side ports
	tx, rx := nic.NewPort(ports), nic.NewPort(ports)
	nic.Connect(tx, rx)
	cfg := tgen.Config{
		Name: "gen", Port: tx, Pool: pkt.NewPool(bufSize), Spec: e.frameSpec(),
		Rate: e.sh.rate, ProbeEvery: e.sh.probeEvery, Flows: e.sh.flows,
	}
	if e.sh.zipf > 0 {
		cfg.ZipfSkew, cfg.RNG = e.sh.zipf, e.rng.Derive("zipf")
	}
	g := tgen.NewGenerator(s, cfg)
	k := tgen.NewSink(s, "sink", rx)
	g.Start(0)
	k.Start(0)
	return e.counted(func() int {
		before := g.Sent
		s.RunUntil(s.Now() + 50*units.Microsecond)
		return int(g.Sent - before)
	}, func(before, after *runtime.MemStats) float64 {
		return 1000 * float64(after.Mallocs-before.Mallocs)
	}), nil
}

func probeNIC(e probeEnv) (probed, error) {
	tx, rx := nic.NewPort(nic.Config{}), nic.NewPort(nic.Config{})
	nic.Connect(tx, rx)
	pool := pkt.NewPool(bufSize)
	tmpl := e.frameSpec().Template(0)
	var out [burst]*pkt.Buf
	now := units.Time(0)
	return e.timeBatches(whole(func() int {
		for i := 0; i < 16; i++ {
			for j := 0; j < burst; j++ {
				b := pool.Get(tmpl.Len())
				b.SetTemplate(tmpl)
				if !tx.SendAt(now, b) {
					b.Free()
				}
			}
			now = tx.BusyUntil() + nic.DefaultRxLatency
			freeAll(out[:rx.RxBurst(now, out[:])])
		}
		return 16 * burst
	})), nil
}

func probePoolWarm(e probeEnv) (probed, error) {
	pool := pkt.NewPool(bufSize)
	tmpl := e.frameSpec().Template(0)
	return e.timeBatches(whole(func() int {
		for i := 0; i < 1024; i++ {
			b := pool.Get(tmpl.Len())
			b.SetTemplate(tmpl)
			b.Free()
		}
		return 1024
	})), nil
}

// probePoolCold times the first Gets on a fresh pool — slab make and
// zeroing — which every cell pays again because pools die with the cell.
// It also counts the bytes those Gets allocate per buffer.
func probePoolCold(e probeEnv) (probed, error) {
	const n = 256 // one slab
	var held [n]*pkt.Buf
	return e.counted(func() int {
		pool := pkt.NewPool(bufSize)
		for i := range held {
			held[i] = pool.Get(e.sh.frameLen)
		}
		sinkhole += float64(pool.Allocated())
		return n
	}, func(before, after *runtime.MemStats) float64 {
		return float64(after.TotalAlloc - before.TotalAlloc)
	}), nil
}

func probeMaterialize(e probeEnv) (probed, error) {
	const n = 256
	pool := pkt.NewPool(bufSize)
	tmpl := e.frameSpec().Template(0)
	var held [n]*pkt.Buf
	return e.timeBatches(func() (int, time.Duration) {
		for i := range held {
			held[i] = pool.Get(tmpl.Len())
			held[i].SetTemplate(tmpl)
		}
		t0 := time.Now()
		for _, b := range held {
			sinkhole += float64(b.Bytes()[0])
		}
		d := time.Since(t0)
		freeAll(held[:])
		return n, d
	}), nil
}

func probeRing(e probeEnv) (probed, error) {
	r := ring.New(256)
	in := e.frameSource().fill()
	var out [burst]*pkt.Buf
	p := e.timeBatches(whole(func() int {
		for i := 0; i < 64; i++ {
			r.PushBurst(in)
			r.DrainTo(out[:])
		}
		return 64 * burst
	}))
	freeAll(in)
	return p, nil
}

func probeVhost(e probeEnv) (probed, error) {
	d := vhost.New(vhost.Config{Name: "probe"})
	host, guest := e.meter(), e.meter()
	src := e.frameSource()
	var got, back [burst]*pkt.Buf
	now := units.Time(0)
	return e.timeBatches(whole(func() int {
		for i := 0; i < 32; i++ {
			d.HostEnqueueBurst(now, host, src.fill())
			now += vhost.DefaultGuestNotifyDelay
			n := d.GuestRecv(now, guest, got[:])
			d.GuestSendBurst(guest, got[:n])
			freeAll(back[:d.HostDequeueBurst(host, back[:])])
			host.Drain()
			guest.Drain()
		}
		return 32 * burst
	})), nil
}

func probePtnet(e probeEnv) (probed, error) {
	p := ptnet.New(ptnet.Config{Name: "probe"})
	host, guest := e.meter(), e.meter()
	src := e.frameSource()
	var got, back [burst]*pkt.Buf
	now := units.Time(0)
	return e.timeBatches(whole(func() int {
		for i := 0; i < 32; i++ {
			p.HostSendBurst(host, src.fill())
			n := p.GuestRecv(guest, got[:])
			p.GuestSendBurst(now, guest, got[:n])
			freeAll(back[:p.HostRecv(host, back[:])])
			host.Drain()
			guest.Drain()
			now += units.Microsecond
		}
		return 32 * burst
	})), nil
}

func probeL2Fwd(e probeEnv) (probed, error) {
	a, b := vhost.New(vhost.Config{Name: "a"}), vhost.New(vhost.Config{Name: "b"})
	fwd := &vm.L2Fwd{A: &vm.VirtioIf{Dev: a}, B: &vm.VirtioIf{Dev: b}, OwnMAC: switchdef.PortMAC(9)}
	host, guest := e.meter(), e.meter()
	src := e.frameSource()
	var back [burst]*pkt.Buf
	now := units.Time(0)
	return e.timeBatches(whole(func() int {
		for i := 0; i < 32; i++ {
			a.HostEnqueueBurst(now, host, src.fill())
			now += vhost.DefaultGuestNotifyDelay
			fwd.Poll(now, guest)
			freeAll(back[:b.HostDequeueBurst(host, back[:])])
			host.Drain()
			guest.Drain()
		}
		return 32 * burst
	})), nil
}

func probeCharge(e probeEnv) (probed, error) {
	m := e.meter()
	return e.timeBatches(whole(func() int {
		for i := 0; i < 64; i++ {
			m.ChargeNoisyBatch(120, 0.1, burst)
			m.Drain()
		}
		return 64 * burst
	})), nil
}

func probeIdlePoll(e probeEnv) (probed, error) {
	c := cpu.NewPollCore(sim.NewScheduler(), "idle", e.meter(),
		func(units.Time, *cost.Meter) bool { return false })
	now := units.Time(0)
	return e.timeBatches(whole(func() int {
		for i := 0; i < 1024; i++ {
			now, _ = c.Step(now)
		}
		return 1024
	})), nil
}

// switchProbe is one switch between two fake ports, cross-connected
// through its native configuration, fed the workload's flow mix.
type switchProbe struct {
	sw      switchdef.Switch
	in, out *switchtest.FakePort
	m       *cost.Meter
	src     *frameSource
	now     units.Time
}

func (e probeEnv) switchProbe(name string) (*switchProbe, error) {
	env := switchdef.Env{Model: cost.Default(), RNG: e.rng.Derive("switch-" + name), Pool: pkt.NewPool(bufSize)}
	sw, err := switchdef.New(name, env)
	if err != nil {
		return nil, err
	}
	p := &switchProbe{
		sw: sw, in: switchtest.NewFakePort("in"), out: switchtest.NewFakePort("out"),
		m: cost.NewMeter(env.Model, env.RNG.Derive("meter")), src: e.frameSource(),
	}
	sw.AddPort(p.in)
	sw.AddPort(p.out)
	return p, sw.CrossConnect(0, 1)
}

// pushBurst sends one burst through the switch and frees what came out.
func (p *switchProbe) pushBurst() {
	p.in.In = append(p.in.In, p.src.fill()...)
	p.now = switchtest.PollUntilIdle(p.sw, p.m, p.now)
	freeAll(p.out.Out)
	p.out.Out = p.out.Out[:0]
}

func probeSwitchPoll(e probeEnv, name string) (probed, error) {
	p, err := e.switchProbe(name)
	if err != nil {
		return probed{}, err
	}
	return e.timeBatches(whole(func() int {
		for i := 0; i < 8; i++ {
			p.pushBurst()
		}
		return 8 * burst
	})), nil
}

// probeInstallRevoke times one Install+Revoke pair of a rule no frame
// matches — the shape the mid-run controller installs — with a burst of
// traffic before each pair so the pair has caches and memos to retire.
func probeInstallRevoke(e probeEnv, name string) (probed, error) {
	p, err := e.switchProbe(name)
	if err != nil {
		return probed{}, err
	}
	rule := switchdef.Rule{
		Match:   switchdef.Match{Fields: switchdef.FEthDst, EthDst: pkt.MAC{0x0e, 0xc4, 0, 0, 0, 1}},
		Actions: []switchdef.RuleAction{{Kind: switchdef.RuleDrop}},
	}
	var opErr error
	return e.timeBatches(func() (int, time.Duration) {
		p.pushBurst()
		t0 := time.Now()
		if err := p.sw.Install(rule); err != nil {
			opErr = err
		}
		if err := p.sw.Revoke(rule); err != nil {
			opErr = err
		}
		return 1, time.Since(t0)
	}), opErr
}

// probeFlowCache is get-then-put-on-miss on an EMC-sized cache over the
// workload's flow working set: all hits when the set fits the 8192
// entries, mostly evictions when it does not.
func probeFlowCache(e probeEnv) (probed, error) {
	c := flowtab.NewCache[uint64, int](8192)
	seq := e.flowSequence(1 << 16)
	next := 0
	return e.timeBatches(whole(func() int {
		for i := 0; i < 1024; i++ {
			k := uint64(seq[next])
			next = (next + 1) % len(seq)
			h := flowtab.HashUint64(k)
			if _, ok := c.Get(h, k); !ok {
				c.Put(h, k, i)
			}
		}
		return 1024
	})), nil
}

func probeHistAdd(e probeEnv) (probed, error) {
	var h stats.Histogram
	lat := make([]units.Time, 1024)
	for i := range lat {
		lat[i] = units.Time((4 + 60*e.rng.Float64()) * float64(units.Microsecond))
	}
	return e.timeBatches(whole(func() int {
		for _, t := range lat {
			h.Add(t)
		}
		return len(lat)
	})), nil
}

func probePlan(e probeEnv) (probed, error) {
	g, err := e.sh.largest.Graph()
	if err != nil {
		return probed{}, err
	}
	if _, err := topo.NewPlan(g); err != nil {
		return probed{}, err
	}
	return e.timeBatches(whole(func() int {
		for i := 0; i < 8; i++ {
			p, _ := topo.NewPlan(g) // compiled without error just above
			sinkhole += float64(len(p.Actors))
		}
		return 8
	})), nil
}

// probeCellFixed is core.Run with a 1 µs window and warmup (not 0, which
// Run replaces with the defaults): assemble plus teardown of the
// workload's largest cell, with almost nothing simulated in between.
func probeCellFixed(e probeEnv) (probed, error) {
	cfg := e.sh.largest
	cfg.Duration, cfg.Warmup, cfg.Seed = units.Microsecond, units.Microsecond, e.seed
	if _, err := core.Run(cfg); err != nil {
		return probed{}, err
	}
	return e.timeBatches(whole(func() int {
		res, _ := core.Run(cfg) // ran without error just above
		sinkhole += float64(res.Steps)
		return 1
	})), nil
}
