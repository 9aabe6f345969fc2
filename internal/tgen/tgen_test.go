package tgen

import (
	"bytes"
	"math"
	"sort"
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

// TestSingleFlowBuildsOneImage: a one-flow generator allocates exactly one
// template image per frame length — no slab space beyond it — and a
// generator that has built every flow has no slab space left over.
func TestSingleFlowBuildsOneImage(t *testing.T) {
	spec := pkt.FrameSpec{SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2}, FrameLen: 64}
	for _, tc := range []struct {
		name        string
		flows, lens int
		imix        bool
	}{
		{"fixed", 1, 1, false},
		{"imix", 1, imixLens, true},
		{"round-robin-100", 100, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, _ := emitted(t, Config{Spec: spec, Flows: tc.flows, IMIX: tc.imix})
			for slot, s := range g.slabs {
				want := 0
				if slot < tc.lens {
					want = tc.flows
				}
				if s.built != want || len(s.tmpls) != 0 || len(s.data) != 0 {
					t.Fatalf("slot %d: %d templates built (want %d), %d templates and %d bytes of slab unused",
						slot, s.built, want, len(s.tmpls), len(s.data))
				}
			}
		})
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
