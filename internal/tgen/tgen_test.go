package tgen

import (
	"math"
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
		for i := 0; i < 4*g.cfg.Burst; i++ {
			if !g.emitOne(now) {
				break
			}
		}
		next := now + units.Time(g.cfg.Burst)*port.Rate().WireTime(g.cfg.Spec.FrameLen)/2
		if until := port.BusyUntil(); until > now && until-now < next-now {
			next = until
		}
		if next <= now {
			next = now + units.Nanosecond
		}
		return next, true
	}
	deadline := g.sched.Deadline()
	for i := 0; i < g.cfg.Burst; i++ {
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
					Name: "g", Port: gen, Pool: pkt.NewPool(2048), Rate: tc.rate, Burst: DefaultBurst,
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
