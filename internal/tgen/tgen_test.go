package tgen

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/nic"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/units"
)

func testbed(rate units.BitRate, probeEvery units.Time) (*sim.Scheduler, *Generator, *Sink, *nic.Port) {
	s := sim.NewScheduler()
	gen := nic.NewPort(nic.Config{Name: "gen", TxRing: 4096, RxRing: 4096, HWTimestamp: true,
		RxLatency: nic.NoLatency, TxLatency: nic.NoLatency})
	peer := nic.NewPort(nic.Config{Name: "peer", TxRing: 4096, RxRing: 4096,
		RxLatency: nic.NoLatency, TxLatency: nic.NoLatency})
	nic.Connect(gen, peer)
	g := NewGenerator(s, Config{
		Name: "g", Port: gen, Pool: pkt.NewPool(2048),
		Spec: pkt.FrameSpec{
			SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
			FrameLen: 64,
		},
		Rate:       rate,
		ProbeEvery: probeEvery,
	})
	k := NewSink(s, "sink", peer)
	g.Start(0)
	k.Start(0)
	return s, g, k, peer
}

func TestSaturatingModeHitsLineRate(t *testing.T) {
	s, g, k, _ := testbed(0, 0)
	s.RunUntil(units.Millisecond)
	// 14.88 Mpps → 14880 packets delivered per ms (the generator itself
	// additionally keeps the 4096-deep TX ring topped up).
	if math.Abs(float64(k.Rx.Packets)-14880) > 150 {
		t.Fatalf("delivered = %d, want ~14880", k.Rx.Packets)
	}
	if g.Sent < k.Rx.Packets {
		t.Fatalf("sent %d < delivered %d", g.Sent, k.Rx.Packets)
	}
}

func TestRateModePacesCBR(t *testing.T) {
	s, g, _, _ := testbed(units.Gbps, 0) // 1 Gbps of 64B = 1.488 Mpps
	s.RunUntil(units.Millisecond)
	if math.Abs(float64(g.Sent)-1488) > 20 {
		t.Fatalf("sent = %d, want ~1488", g.Sent)
	}
}

func TestProbesInjectedAndMeasured(t *testing.T) {
	s, g, k, _ := testbed(units.Gbps, 50*units.Microsecond)
	s.RunUntil(units.Millisecond)
	if g.SentProbes < 15 || g.SentProbes > 25 {
		t.Fatalf("probes = %d, want ~20", g.SentProbes)
	}
	if k.Hist.N() != g.SentProbes {
		t.Fatalf("sink saw %d probes of %d", k.Hist.N(), g.SentProbes)
	}
	// Direct wire: RTT is exactly the 64B wire time (hardware timestamps
	// at both ends, zero descriptor latency in this test).
	if k.Hist.Mean() != 0 {
		// TxStamp is end-of-wire at the sender and Ingress is arrival at
		// the peer — the same instant on a zero-latency wire.
		t.Fatalf("rtt = %v, want 0 on a direct wire", k.Hist.Mean())
	}
}

func TestSinkCountsBytes(t *testing.T) {
	s, g, k, _ := testbed(units.Gbps, 0)
	s.RunUntil(units.Millisecond)
	if k.Rx.Bytes != k.Rx.Packets*64 {
		t.Fatalf("bytes = %d for %d packets", k.Rx.Bytes, k.Rx.Packets)
	}
	_ = g
}

func TestGeneratorDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		s, g, k, _ := testbed(0, 20*units.Microsecond)
		s.RunUntil(units.Millisecond)
		return g.Sent, k.Hist.N()
	}
	s1, p1 := run()
	s2, p2 := run()
	if s1 != s2 || p1 != p2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", s1, p1, s2, p2)
	}
}

// TestZipfSearchMatchesSearchFloat64s: the guided draw returns exactly
// what a binary search over the whole CDF returns — for random draws, for
// every CDF value, for the floats on both sides of each, and at every
// bucket edge.
func TestZipfSearchMatchesSearchFloat64s(t *testing.T) {
	rng := sim.NewRNG(26)
	for _, n := range []int{2, 512, 8192, 32768} {
		for _, s := range []float64{0.5, 1.1, 2} {
			cdf := zipfCDF(n, s)
			guide := zipfGuide(cdf)
			check := func(u float64) {
				if got, want := zipfSearch(cdf, guide, u), sort.SearchFloat64s(cdf, u); got != want {
					t.Fatalf("n=%d s=%v u=%v: flow %d, SearchFloat64s %d", n, s, u, got, want)
				}
			}
			for i := 0; i < 100000; i++ {
				check(rng.Float64())
			}
			for _, c := range cdf {
				check(math.Nextafter(c, 0))
				check(c)
				check(math.Nextafter(c, 2))
			}
			for k := 0; k <= n; k++ {
				edge := float64(k) / float64(n)
				check(math.Nextafter(edge, 0))
				check(edge)
				check(math.Nextafter(edge, 2))
			}
		}
	}
}

// TestSharedZipfMatchesFresh: the table every generator of one (flows,
// skew) shares is, bit for bit, the CDF and guide a fresh computation
// builds, and two generators of that pair built at once — as two campaign
// workers may — read the same one (`go test -race` checks the sharing).
func TestSharedZipfMatchesFresh(t *testing.T) {
	for _, n := range []int{2, 512, 32768} {
		for _, s := range []float64{0.5, 1.1} {
			var gens [2]*Generator
			var wg sync.WaitGroup
			for i := range gens {
				wg.Add(1)
				go func() {
					defer wg.Done()
					gens[i] = NewGenerator(sim.NewScheduler(), Config{
						Name: "g", Spec: pkt.FrameSpec{FrameLen: 64}, Flows: n, ZipfSkew: s, RNG: sim.NewRNG(1),
					})
					gens[i].zipfFlow()
				}()
			}
			wg.Wait()
			got := gens[0].zipf
			if got == nil || gens[1].zipf != got {
				t.Fatalf("n=%d s=%v: generators hold tables %p and %p, want one shared", n, s, got, gens[1].zipf)
			}
			cdf := zipfCDF(n, s)
			guide := zipfGuide(cdf)
			if len(got.cdf) != len(cdf) || len(got.guide) != len(guide) {
				t.Fatalf("n=%d s=%v: shared table has %d/%d entries, fresh %d/%d", n, s, len(got.cdf), len(got.guide), len(cdf), len(guide))
			}
			for k := range cdf {
				if math.Float64bits(got.cdf[k]) != math.Float64bits(cdf[k]) {
					t.Fatalf("n=%d s=%v: shared cdf[%d] = %v, fresh %v", n, s, k, got.cdf[k], cdf[k])
				}
			}
			for k := range guide {
				if got.guide[k] != guide[k] {
					t.Fatalf("n=%d s=%v: shared guide[%d] = %d, fresh %d", n, s, k, got.guide[k], guide[k])
				}
			}
		}
	}
}

// emitted runs cfg's generator saturating a wire for 300 µs and returns
// it with every frame the sink received, in order.
func emitted(t *testing.T, cfg Config) (*Generator, []*pkt.Buf) {
	t.Helper()
	s := sim.NewScheduler()
	gen := nic.NewPort(nic.Config{Name: "gen", TxRing: 4096, RxRing: 4096})
	peer := nic.NewPort(nic.Config{Name: "peer", TxRing: 4096, RxRing: 4096})
	nic.Connect(gen, peer)
	cfg.Name, cfg.Port, cfg.Pool = "g", gen, pkt.NewPool(2048)
	g := NewGenerator(s, cfg)
	k := NewSink(s, "sink", peer)
	keep := pkt.NewPool(2048)
	var frames []*pkt.Buf
	k.Capture = func(_ units.Time, b *pkt.Buf) { frames = append(frames, keep.Clone(b)) }
	g.Start(0)
	k.Start(0)
	s.RunUntil(300 * units.Microsecond)
	if len(frames) == 0 || int64(len(frames)) > g.Sent {
		t.Fatalf("sink received %d of %d frames", len(frames), g.Sent)
	}
	return g, frames
}

// TestEmittedFramesMatchSpecTemplates: every frame a generator emits reads
// byte for byte as FrameSpec.Template(flow) at its length, with the flow
// and length recomputed independently — the round-robin cycle, or one
// Zipf draw per frame by a full binary search on a twin RNG, and the IMIX
// cycle.
func TestEmittedFramesMatchSpecTemplates(t *testing.T) {
	spec := pkt.FrameSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 1, 2},
		SrcPort: 1000, DstPort: 2001, FrameLen: 64,
	}
	for _, tc := range []struct {
		name  string
		flows int
		zipf  float64
		imix  bool
	}{
		{"single-flow", 1, 0, false},
		{"round-robin-512", 512, 0, false},
		{"zipf-1.1-8192", 8192, 1.1, false},
		{"imix-64", 64, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Spec: spec, Flows: tc.flows, IMIX: tc.imix}
			var twin *sim.RNG
			var cdf []float64
			if tc.zipf > 0 {
				cfg.ZipfSkew, cfg.RNG, twin = tc.zipf, sim.NewRNG(7), sim.NewRNG(7)
				cdf = zipfCDF(tc.flows, tc.zipf)
			}
			_, frames := emitted(t, cfg)
			want := map[[2]int][]byte{}
			for i, b := range frames {
				seq := uint64(i + 1)
				if b.Seq != seq {
					t.Fatalf("frame %d has seq %d", i, b.Seq)
				}
				frameLen, flow := spec.FrameLen, int(seq)%tc.flows
				if tc.imix {
					frameLen = imixSizes[(seq-1)%uint64(len(imixSizes))]
				}
				if cdf != nil {
					flow = sort.SearchFloat64s(cdf, twin.Float64())
				}
				k := [2]int{frameLen, flow}
				if want[k] == nil {
					s := spec
					s.FrameLen = frameLen
					want[k] = s.Template(flow).Image()
				}
				if !bytes.Equal(b.View(), want[k]) {
					t.Fatalf("frame %d (flow %d, %d B) differs from FrameSpec.Template", i, flow, frameLen)
				}
			}
			if tc.flows > 1 && len(want) < 64 {
				t.Fatalf("only %d distinct (length, flow) pairs: the run exercises too little", len(want))
			}
		})
	}
}

// storeSpecs numbers the specs of freshSpec.
var storeSpecs atomic.Uint32

// freshSpec returns a 64-byte spec no other call returns, so a test of the
// process-wide template store starts from an entry nothing has built,
// under -count=N too.
func freshSpec() pkt.FrameSpec {
	n := storeSpecs.Add(1)
	return pkt.FrameSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: [4]byte{10, 9, byte(n >> 8), byte(n)}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000, FrameLen: 64,
	}
}

// storeEntry returns spec's store entry as it stands.
func storeEntry(spec pkt.FrameSpec) []*pkt.Template {
	templates.Lock()
	defer templates.Unlock()
	return templates.m[spec]
}

// TestSingleFlowBuildsOneImage: the store builds one image per (spec,
// frame length, flow) however many generators emit it — two generators of
// one config hold the same store slices, IMIX positions of one length
// share one, and each length's store entry holds exactly the config's
// flows, so a one-flow spec holds one image per length.
func TestSingleFlowBuildsOneImage(t *testing.T) {
	for _, tc := range []struct {
		name             string
		flows, positions int
		imix             bool
	}{
		{"fixed", 1, 1, false},
		{"imix", 1, len(imixSizes), true},
		{"round-robin-100", 100, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Spec: freshSpec(), Flows: tc.flows, IMIX: tc.imix}
			g, _ := emitted(t, cfg)
			h, _ := emitted(t, cfg)
			if len(g.tmpls) != tc.positions || len(h.tmpls) != tc.positions {
				t.Fatalf("generators hold %d and %d positions, want %d", len(g.tmpls), len(h.tmpls), tc.positions)
			}
			byLen := map[int][]*pkt.Template{}
			for pos, tmpls := range g.tmpls {
				if len(tmpls) != tc.flows || &tmpls[0] != &h.tmpls[pos][0] {
					t.Fatalf("position %d: %d templates, shared slice %v", pos, len(tmpls), &tmpls[0] == &h.tmpls[pos][0])
				}
				frameLen := tmpls[0].Len()
				if first, ok := byLen[frameLen]; ok && &first[0] != &tmpls[0] {
					t.Fatalf("position %d: %d B positions hold different slices", pos, frameLen)
				}
				byLen[frameLen] = tmpls
				spec := cfg.Spec
				spec.FrameLen = frameLen
				entry := storeEntry(spec)
				if len(entry) != tc.flows || &entry[0] != &tmpls[0] {
					t.Fatalf("position %d: the %d B store entry holds %d templates (want %d), shared slice %v",
						pos, frameLen, len(entry), tc.flows, &entry[0] == &tmpls[0])
				}
			}
		})
	}
}

// checkShared fails unless every slice in got holds the templates of its
// own length's first flows of want, pointer for pointer, and want's are
// the images FrameSpec.Template serializes.
func checkShared(t *testing.T, spec pkt.FrameSpec, want []*pkt.Template, got ...[]*pkt.Template) {
	t.Helper()
	for f, tm := range want {
		if !bytes.Equal(tm.Image(), spec.Template(f).Image()) {
			t.Fatalf("flow %d: stored image differs from FrameSpec.Template", f)
		}
	}
	for i, s := range got {
		for f, tm := range s {
			if tm != want[f] {
				t.Fatalf("slice %d (%d flows), flow %d: template %p, want %p", i, len(s), f, tm, want[f])
			}
		}
	}
}

// TestConcurrentGeneratorsShareTemplates: a longer slice of the store keeps
// the shorter one's templates as its prefix, and goroutines asking one spec
// for 50, 100 and 300 flows, each in its own order, so that the entry grows
// while others read it, get pointer-equal templates for every flow they
// share, each the image FrameSpec.Template serializes.
func TestConcurrentGeneratorsShareTemplates(t *testing.T) {
	counts := []int{50, 100, 300}
	spec := freshSpec()
	var grown [][]*pkt.Template
	for _, flows := range counts {
		grown = append(grown, Templates(spec, flows))
	}
	checkShared(t, spec, Templates(spec, 300), grown...)

	orders := [][]int{{50, 100, 300}, {300, 100, 50}, {100, 50, 300}, {50, 300, 100}, {100, 300, 50}, {300, 50, 100}}
	spec = freshSpec()
	got := make([][][]*pkt.Template, len(orders))
	var wg sync.WaitGroup
	for w, order := range orders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, flows := range order {
				s := Templates(spec, flows)
				if len(s) != flows {
					t.Errorf("asked for %d flows, got %d", flows, len(s))
				}
				for _, tm := range s {
					_ = tm.Layout() // read the slice while others grow the entry
				}
				got[w] = append(got[w], s)
			}
		}()
	}
	wg.Wait()
	checkShared(t, spec, Templates(spec, 300), slices.Concat(got...)...)
}

// TestSecondGeneratorAllocatesNoTemplates: once a spec's templates are
// built, what NewGenerator allocates does not depend on its flows — a
// generator of 32 768 flows allocates the bytes one of a single flow does.
func TestSecondGeneratorAllocatesNoTemplates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates for itself")
	}
	const flows = 32768
	spec := freshSpec()
	Templates(spec, flows)
	allocated := func(flows int) uint64 {
		least := uint64(math.MaxUint64)
		for i := 0; i < 10; i++ {
			s, cfg := sim.NewScheduler(), Config{Name: "g", Spec: spec, Flows: flows}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			NewGenerator(s, cfg)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	if one, many := allocated(1), allocated(flows); many != one {
		t.Fatalf("NewGenerator of a built spec allocates %d B at %d flows, %d B at one", many, flows, one)
	}
}

// refGenerator emits the way Generator did before it kept a TX credit: one
// TxFree ring-space check in front of every frame. The done times of the
// frames it puts on the wire are what the credit must not move.
type refGenerator struct {
	cfg   Config
	sched *sim.Scheduler
	tmpl  *pkt.Template

	seq     uint64
	nextDue units.Time
	sent    int64
}

func (g *refGenerator) emitOne(at units.Time) bool {
	if g.cfg.Port.TxFree(at) == 0 {
		return false
	}
	g.seq++
	b := g.cfg.Pool.Get(g.cfg.Spec.FrameLen)
	b.SetTemplate(g.tmpl)
	b.Seq = g.seq
	if !g.cfg.Port.SendAt(at, b) {
		b.Free()
		return false
	}
	g.sent++
	return true
}

func (g *refGenerator) Step(now units.Time) (units.Time, bool) {
	port := g.cfg.Port
	if g.cfg.Rate <= 0 {
		for i := 0; i < 4*DefaultBurst; i++ {
			if !g.emitOne(now) {
				break
			}
		}
		next := now + units.Time(DefaultBurst)*port.Rate().WireTime(g.cfg.Spec.FrameLen)/2
		if until := port.BusyUntil(); until > now && until-now < next-now {
			next = until
		}
		if next <= now {
			next = now + units.Nanosecond
		}
		return next, true
	}
	deadline := g.sched.Deadline()
	for i := 0; i < DefaultBurst; i++ {
		due := g.nextDue
		if i > 0 && due > deadline {
			break
		}
		g.emitOne(due)
		g.nextDue += g.cfg.Rate.WireTime(g.cfg.Spec.FrameLen)
		if g.nextDue <= due {
			g.nextDue = due + units.Nanosecond
		}
	}
	return g.nextDue, true
}

// TestEmitMatchesPerFrameRingCheck runs Generator and refGenerator over
// identical wires — saturating into a deep and into a shallow TX ring, paced
// below line rate, and paced above it so that the ring fills and frames are
// skipped — and requires the same frames to finish serializing at the same
// instants, the same Sent count, and no frame ever bounced off the ring.
func TestEmitMatchesPerFrameRingCheck(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rate   units.BitRate
		txRing int
	}{
		{"saturating", 0, 4096},
		{"saturating-shallow-ring", 0, 48},
		{"paced", units.Gbps, 4096},
		{"paced-over-line-rate", 25 * units.Gbps, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type frame struct {
				seq  uint64
				done units.Time
			}
			run := func(ref bool) (frames []frame, sent, bounced int64) {
				s := sim.NewScheduler()
				gen := nic.NewPort(nic.Config{Name: "gen", TxRing: tc.txRing, RxRing: 4096})
				peer := nic.NewPort(nic.Config{Name: "peer", TxRing: 4096, RxRing: 4096})
				nic.Connect(gen, peer)
				cfg := Config{
					Name: "g", Port: gen, Pool: pkt.NewPool(2048), Rate: tc.rate,
					Spec: pkt.FrameSpec{SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2}, FrameLen: 64},
				}
				var g *Generator
				var r *refGenerator
				if ref {
					r = &refGenerator{cfg: cfg, sched: s, tmpl: cfg.Spec.Template(0)}
					s.WakeAt(s.Register("g", r), 0)
				} else {
					g = NewGenerator(s, cfg)
					g.Start(0)
				}
				k := NewSink(s, "sink", peer)
				k.Capture = func(at units.Time, b *pkt.Buf) { frames = append(frames, frame{b.Seq, at}) }
				k.Start(0)
				s.RunUntil(300 * units.Microsecond)
				if ref {
					return frames, r.sent, gen.Stats.TxDropsFull
				}
				return frames, g.Sent, gen.Stats.TxDropsFull
			}
			want, wantSent, _ := run(true)
			got, gotSent, bounced := run(false)
			if gotSent != wantSent || bounced != 0 {
				t.Fatalf("sent %d (reference %d), %d bounced off the TX ring", gotSent, wantSent, bounced)
			}
			if len(got) != len(want) || len(got) == 0 {
				t.Fatalf("delivered %d frames, reference %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("frame %d: seq %d done %v, reference seq %d done %v",
						i, got[i].seq, got[i].done, want[i].seq, want[i].done)
				}
			}
		})
	}
}
